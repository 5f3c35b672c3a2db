"""In-memory (DOM) XPath evaluation — the Saxon/Galax analogue.

The paper's non-streaming comparison systems load the entire document
into a materialized tree and evaluate queries by tree traversal
(Section 5: "Saxon ... needs to build a DOM tree of the entire XML
document in main memory before performing any operations").  This module
is that engine, implemented directly over the same XPath subset.

It plays two roles:

1. **Baseline** for the throughput/memory experiments: its costs are a
   build phase proportional to document size plus an in-memory query
   phase — exactly the profile Figures 18 and 19 attribute to Saxon and
   Galax (memory linear in input with a multiple-of-file-size constant).
2. **Oracle** for correctness: it shares no code with the streaming
   engines beyond the parsed AST, so agreement between the two is strong
   evidence both are right.  Results are produced in document order of
   the output unit (the text chunk / attribute / element begin), which
   is the order the paper's head-of-queue discipline guarantees for the
   streaming engines.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.streaming.source import coerce_source
from repro.streaming.serialize import begin_tag_text, escape_text
from repro.streaming.events import BeginEvent
from repro.xpath.ast import (
    AttrCompare,
    AttrExists,
    AttrOutput,
    Axis,
    AggregateOutput,
    ChildAttrCompare,
    ChildAttrExists,
    ChildExists,
    ChildTextCompare,
    ElementOutput,
    NotPredicate,
    OrPredicate,
    PathAttrCompare,
    PathAttrExists,
    PathExists,
    PathPredicate,
    PathTextCompare,
    Predicate,
    Query,
    TextCompare,
    TextExists,
    TextOutput,
    compare,
    test_tag,
)
from repro.xpath.parser import parse_query
from repro.xsq.aggregates import StatBuffer


class DomElement:
    """One element node of the materialized tree.

    ``content`` interleaves child elements and text chunks in document
    order, which is what serialization and text-chunk positioning need;
    ``children`` and ``texts`` are the type-filtered views predicates
    use.
    """

    __slots__ = ("tag", "attrs", "parent", "content", "position")

    def __init__(self, tag: str, attrs: Dict[str, str],
                 parent: Optional["DomElement"], position: int):
        self.tag = tag
        self.attrs = attrs
        self.parent = parent
        self.content: List[Tuple[str, object]] = []  # ("elem"|"text", payload)
        self.position = position  # document order of the begin event

    @property
    def children(self) -> List["DomElement"]:
        return [payload for kind, payload in self.content if kind == "elem"]

    @property
    def texts(self) -> List[str]:
        """Direct text chunks, one per text event."""
        return [payload for kind, payload in self.content if kind == "text"]

    def iter_descendants(self) -> Iterable["DomElement"]:
        """All elements strictly below this one, in document order.

        Iterative: the streaming engines handle arbitrarily deep
        documents, so the oracle must too.
        """
        stack = [iter(self.content)]
        while stack:
            try:
                kind, payload = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if kind == "elem":
                yield payload
                stack.append(iter(payload.content))

    def serialize(self) -> str:
        """Serialize the subtree (iteratively, for deep documents)."""
        parts = [begin_tag_text(BeginEvent(self.tag, self.attrs))]
        stack = [(self, iter(self.content))]
        while stack:
            element, content = stack[-1]
            try:
                kind, payload = next(content)
            except StopIteration:
                parts.append("</%s>" % element.tag)
                stack.pop()
                continue
            if kind == "elem":
                parts.append(begin_tag_text(BeginEvent(payload.tag,
                                                       payload.attrs)))
                stack.append((payload, iter(payload.content)))
            else:
                parts.append(escape_text(payload))
        return "".join(parts)

    def __repr__(self):
        return "<DomElement %s pos=%d children=%d>" % (
            self.tag, self.position, len(self.children))


class DomDocument:
    """A fully materialized document.

    ``text_positions[id(element)]`` maps each element to the document
    positions of its direct text chunks so that output units can be
    ordered globally (see module docstring).
    """

    def __init__(self, root: DomElement, node_count: int,
                 text_positions: Dict[int, List[int]]):
        self.root = root
        self.node_count = node_count
        self._text_positions = text_positions

    def text_positions(self, element: DomElement) -> List[int]:
        return self._text_positions.get(id(element), [])

    def iter_elements(self) -> Iterable[DomElement]:
        """Every element in the document, in document order."""
        yield self.root
        yield from self.root.iter_descendants()


def build_dom(source) -> DomDocument:
    """Materialize a document from anything
    :func:`~repro.streaming.source.coerce_source` accepts (XML text, a
    path, bytes, a stream, chunks or an event stream)."""
    events = coerce_source(source).events()
    root: Optional[DomElement] = None
    stack: List[DomElement] = []
    position = 0
    text_positions: Dict[int, List[int]] = {}
    for event in events:
        position += 1
        kind = event.kind
        if kind == "begin":
            element = DomElement(event.tag, dict(event.attrs),
                                 stack[-1] if stack else None, position)
            if stack:
                stack[-1].content.append(("elem", element))
            elif root is None:
                root = element
            else:
                raise ValueError("multiple document elements in stream")
            stack.append(element)
        elif kind == "end":
            stack.pop()
        else:
            if not stack:
                raise ValueError("text outside the document element")
            top = stack[-1]
            top.content.append(("text", event.text))
            text_positions.setdefault(id(top), []).append(position)
    if root is None:
        raise ValueError("empty document")
    return DomDocument(root, position, text_positions)


def _predicate_holds(element: DomElement, predicate: Predicate) -> bool:
    """Evaluate one predicate against a materialized element.

    Mirrors the BPDT template semantics: text comparisons are
    exists-over-text-chunks, child comparisons exists-over-children.
    """
    if isinstance(predicate, AttrExists):
        return predicate.attr in element.attrs
    if isinstance(predicate, AttrCompare):
        value = element.attrs.get(predicate.attr)
        return value is not None and compare(value, predicate.op,
                                             predicate.value)
    if isinstance(predicate, TextExists):
        return any(chunk.strip() for chunk in element.texts)
    if isinstance(predicate, TextCompare):
        return any(compare(chunk, predicate.op, predicate.value)
                   for chunk in element.texts)
    if isinstance(predicate, ChildExists):
        return any(test_tag(predicate.child, c.tag)
                   for c in element.children)
    if isinstance(predicate, ChildAttrExists):
        return any(test_tag(predicate.child, c.tag)
                   and predicate.attr in c.attrs
                   for c in element.children)
    if isinstance(predicate, ChildAttrCompare):
        for child in element.children:
            if not test_tag(predicate.child, child.tag):
                continue
            value = child.attrs.get(predicate.attr)
            if value is not None and compare(value, predicate.op,
                                             predicate.value):
                return True
        return False
    if isinstance(predicate, ChildTextCompare):
        for child in element.children:
            if not test_tag(predicate.child, child.tag):
                continue
            if any(compare(chunk, predicate.op, predicate.value)
                   for chunk in child.texts):
                return True
        return False
    if isinstance(predicate, NotPredicate):
        return not _predicate_holds(element, predicate.inner)
    if isinstance(predicate, OrPredicate):
        return any(_predicate_holds(element, branch)
                   for branch in predicate.branches)
    if isinstance(predicate, PathPredicate):
        return any(_path_target_passes(target, predicate)
                   for target in _walk_path(element, predicate.path))
    raise TypeError("unknown predicate type: %r" % type(predicate))


def _walk_path(element: DomElement, path: Tuple[str, ...]
               ) -> Iterable[DomElement]:
    """Elements reached by a child-axis tag path below ``element``."""
    frontier = [element]
    for tag in path:
        frontier = [child for node in frontier for child in node.children
                    if test_tag(tag, child.tag)]
        if not frontier:
            return []
    return frontier


def _path_target_passes(target: DomElement,
                        predicate: PathPredicate) -> bool:
    if isinstance(predicate, PathExists):
        return True
    if isinstance(predicate, PathAttrExists):
        return predicate.attr in target.attrs
    if isinstance(predicate, PathAttrCompare):
        value = target.attrs.get(predicate.attr)
        return value is not None and compare(value, predicate.op,
                                             predicate.value)
    if isinstance(predicate, PathTextCompare):
        return any(compare(chunk, predicate.op, predicate.value)
                   for chunk in target.texts)
    raise TypeError("unknown path predicate: %r" % type(predicate))


def _element_passes(element: DomElement, step) -> bool:
    return (step.matches_tag(element.tag)
            and all(_predicate_holds(element, p) for p in step.predicates))


def match_elements(document: DomDocument, query: Query) -> List[DomElement]:
    """Elements matching the full location path, deduplicated, doc order."""
    # The virtual root's "children" are just the document element; its
    # "descendants" are every element.
    if query.steps[0].axis is Axis.CHILD:
        current = [document.root] if _element_passes(document.root,
                                                     query.steps[0]) else []
    else:
        current = [el for el in document.iter_elements()
                   if _element_passes(el, query.steps[0])]
    current_set: Set[int] = {id(el) for el in current}
    for step in query.steps[1:]:
        next_level: List[DomElement] = []
        next_set: Set[int] = set()
        for element in current:
            pool = (element.children if step.axis is Axis.CHILD
                    else element.iter_descendants())
            for candidate in pool:
                if id(candidate) in next_set:
                    continue
                if _element_passes(candidate, step):
                    next_set.add(id(candidate))
                    next_level.append(candidate)
        next_level.sort(key=lambda el: el.position)
        current = next_level
        current_set = next_set
    return current


def evaluate(document: DomDocument, query: Union[str, Query]) -> List[str]:
    """Evaluate ``query`` and return result items in document order.

    Output units: one item per text chunk for ``text()``, per present
    attribute for ``@attr``, and one serialized element per match for
    the default output.  Aggregates return the single final value,
    formatted by :class:`repro.xsq.aggregates.StatBuffer`.
    """
    if isinstance(query, str):
        query = parse_query(query)
    matches = match_elements(document, query)
    output = query.output
    if isinstance(output, AggregateOutput):
        stat = StatBuffer(output.name)
        for element in matches:
            if output.name == "count":
                stat.update(1.0)
            else:
                for chunk in element.texts:
                    stat.update_text(chunk)
        return [stat.render()]
    items: List[Tuple[int, str]] = []
    if isinstance(output, TextOutput):
        for element in matches:
            positions = document.text_positions(element)
            for chunk, position in zip(element.texts, positions):
                items.append((position, chunk))
    elif isinstance(output, AttrOutput):
        for element in matches:
            value = element.attrs.get(output.attr)
            if value is not None:
                items.append((element.position, value))
    elif isinstance(output, ElementOutput):
        for element in matches:
            items.append((element.position, element.serialize()))
    else:
        raise TypeError("unknown output type: %r" % type(output))
    items.sort(key=lambda pair: pair[0])
    return [value for _, value in items]


class DomEngine:
    """Baseline engine facade with explicit build/query phases.

    The two-phase shape mirrors Saxon/Galax in Figure 18: ``preprocess``
    consumes the whole input (this is where the linear memory goes), and
    ``query`` then runs entirely in memory.  ``run`` does both, matching
    the single-shot interface of the streaming engines.
    """

    name = "dom"
    supports_predicates = True
    supports_closures = True
    supports_aggregates = True
    streaming = False

    def __init__(self, query: Union[str, Query]):
        self.query = parse_query(query) if isinstance(query, str) else query
        self._document: Optional[DomDocument] = None

    def preprocess(self, source) -> DomDocument:
        self._document = build_dom(source)
        return self._document

    def run_query(self) -> List[str]:
        if self._document is None:
            raise RuntimeError("preprocess() must run before run_query()")
        return evaluate(self._document, self.query)

    def run(self, source) -> List[str]:
        self.preprocess(source)
        return self.run_query()
