"""Generate random documents that are *valid against a DTD*.

The schema-aware machinery (validator, optimizer) needs schema-valid
inputs to be tested meaningfully: the optimizer's transformations are
only guaranteed on documents the DTD admits.  This generator samples
such documents directly from the content models — a child sequence is
drawn by walking Brzozowski derivative states, choosing among tags
whose derivative is non-failing, and stopping when the state is
accepting; recursion is tamed by a depth budget past which the walk
takes a shortest path to acceptance.

Used by ``tests/test_from_dtd.py``'s differential properties:
generated documents always validate, and ``repro.compile(query,
schema=dtd)`` must agree with the schema-free compile on every one of
them.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.datagen.base import XmlWriter, open_target, finish
from repro.streaming.dtd import ContentModel, Dtd, Expr, Nothing

#: Safety valve: abort pathological shortest-completion searches.
_COMPLETION_STATE_LIMIT = 500


def shortest_completion(model: ContentModel, state: Expr,
                        limit: int = _COMPLETION_STATE_LIMIT
                        ) -> Optional[List[str]]:
    """Shortest tag sequence taking ``state`` to acceptance (BFS).

    Returns None when no completion exists within the explored bound
    (a failing state, or a pathological model).

    >>> from repro.streaming.dtd import parse_dtd
    >>> model = parse_dtd("<!ELEMENT r (a, b+)><!ELEMENT a EMPTY>"
    ...                   "<!ELEMENT b EMPTY>").elements["r"].content
    >>> shortest_completion(model, model.initial_state())
    ['a', 'b']
    """
    if model.accepting(state):
        return []
    alphabet = sorted(model.expr.all_tags() - {"*"})
    seen = {repr(state)}
    queue = deque([(state, [])])
    while queue and len(seen) < limit:
        current, path = queue.popleft()
        for tag in alphabet:
            nxt = model.advance(current, tag)
            if isinstance(nxt, Nothing):
                continue
            key = repr(nxt)
            if key in seen:
                continue
            seen.add(key)
            if model.accepting(nxt):
                return path + [tag]
            queue.append((nxt, path + [tag]))
    return None


class DtdDocumentGenerator:
    """Sample schema-valid documents from a DTD.

    ``continue_probability`` controls how eagerly optional content is
    expanded (higher = bushier documents); ``max_depth`` is the point
    where the walk stops expanding optional branches and completes
    each element as briefly as the model allows.
    """

    def __init__(self, dtd: Dtd, seed: int = 41, max_depth: int = 8,
                 continue_probability: float = 0.6):
        if dtd.root is None:
            raise ValueError("document generation needs Dtd(root=...)")
        self.dtd = dtd
        self.rng = random.Random(seed)
        self.max_depth = max_depth
        self.continue_probability = continue_probability
        self._words = ("alpha", "beta", "gamma", "delta", "epsilon",
                       "zeta", "eta", "theta")

    # -- child-sequence sampling -------------------------------------------

    def sample_children(self, model: ContentModel, depth: int) -> List[str]:
        """One child-tag sequence accepted by ``model``."""
        rng = self.rng
        state = model.initial_state()
        chosen: List[str] = []
        alphabet = sorted(model.expr.all_tags() - {"*"})
        if "*" in model.expr.all_tags():
            alphabet = sorted(self.dtd.elements)
        budget = 24
        while True:
            can_stop = model.accepting(state)
            deep = depth >= self.max_depth or len(chosen) >= budget
            if can_stop and (deep or rng.random() > self.continue_probability):
                return chosen
            options = []
            for tag in alphabet:
                nxt = model.advance(state, tag)
                if not isinstance(nxt, Nothing):
                    options.append((tag, nxt))
            if not options:
                return chosen  # accepting (can_stop must hold here)
            if deep and not can_stop:
                completion = shortest_completion(model, state)
                if completion is None:
                    return chosen
                return chosen + completion
            if deep:
                return chosen
            tag, state = rng.choice(options)
            chosen.append(tag)

    # -- document emission ----------------------------------------------------

    def _attributes(self, tag: str) -> Dict[str, str]:
        decl = self.dtd.elements[tag]
        attrs: Dict[str, str] = {}
        for att in decl.attributes.values():
            include = att.required or self.rng.random() < 0.5
            if not include:
                continue
            if att.enum_values:
                attrs[att.name] = self.rng.choice(att.enum_values)
            elif att.mode == "#FIXED" and att.default is not None:
                attrs[att.name] = att.default
            else:
                attrs[att.name] = str(self.rng.randint(0, 9999))
        return attrs

    def _text(self) -> str:
        if self.rng.random() < 0.4:
            return str(self.rng.randint(0, 5000))
        return " ".join(self.rng.choice(self._words)
                        for _ in range(self.rng.randint(1, 4)))

    def _emit(self, writer: XmlWriter, tag: str, depth: int) -> None:
        decl = self.dtd.elements[tag]
        writer.begin(tag, **self._attributes(tag))
        model = decl.content
        children = self.sample_children(model, depth)
        if model.allows_text() and (not children
                                    or self.rng.random() < 0.7):
            writer.text(self._text())
        for child in children:
            self._emit(writer, child, depth + 1)
        writer.end()

    def document(self, path: Optional[str] = None) -> Optional[str]:
        """One random valid document (text, or written to ``path``)."""
        writer, stream = open_target(path)
        self._emit(writer, self.dtd.root, 1)
        return finish(writer, stream, path)


def generate_valid_document(dtd: Dtd, seed: int = 41,
                            max_depth: int = 8,
                            path: Optional[str] = None) -> Optional[str]:
    """Convenience wrapper around :class:`DtdDocumentGenerator`."""
    return DtdDocumentGenerator(dtd, seed=seed,
                                max_depth=max_depth).document(path)
