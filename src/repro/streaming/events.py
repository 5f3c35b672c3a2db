"""SAX events extended with depth — the data model of Section 2.1.

The paper models a stream as ``{e1, e2, ...}`` with ``e_i ∈ B ∪ T ∪ E``:
begin events carry ``(tag, attrs, depth)``, end events ``(tag, depth)``
and text events ``(tag, text(), depth)`` where ``tag`` is the tag of the
*enclosing* element.  Depth is 1 for the document element, matching the
depth vectors used by the HPDT runtime.

Events are plain ``__slots__`` classes rather than dataclasses: event
construction dominates the hot path of every engine in this repository,
and attribute access on slotted instances is measurably faster.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Integer event kinds for the batched tuple representation used by the
#: compiled fast path (:mod:`repro.xsq.fastpath`).  A batched event is a
#: plain tuple ``(kind, tag_id, payload, depth)`` where ``kind`` is one
#: of these small ints (cheaper to compare than the kind strings),
#: ``tag_id`` is the tag interned in a :class:`repro.xsq.fastpath.TagTable`,
#: and ``payload`` is the attrs dict (begin), the text (text), or None
#: (end).
BEGIN = 0
TEXT = 1
END = 2


class BeginEvent:
    """Begin event ``(tag, attrs, depth)`` for an opening tag."""

    __slots__ = ("tag", "attrs", "depth")

    kind = "begin"

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None,
                 depth: int = 0):
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}
        self.depth = depth

    def __repr__(self):
        return "BeginEvent(%r, %r, depth=%d)" % (self.tag, self.attrs,
                                                 self.depth)

    def __eq__(self, other):
        return (isinstance(other, BeginEvent) and self.tag == other.tag
                and self.attrs == other.attrs and self.depth == other.depth)

    def __hash__(self):
        return hash(("B", self.tag, self.depth, tuple(sorted(self.attrs.items()))))


class EndEvent:
    """End event ``(/tag, depth)`` for a closing tag."""

    __slots__ = ("tag", "depth")

    kind = "end"

    def __init__(self, tag: str, depth: int = 0):
        self.tag = tag
        self.depth = depth

    def __repr__(self):
        return "EndEvent(%r, depth=%d)" % (self.tag, self.depth)

    def __eq__(self, other):
        return (isinstance(other, EndEvent) and self.tag == other.tag
                and self.depth == other.depth)

    def __hash__(self):
        return hash(("E", self.tag, self.depth))


class TextEvent:
    """Text event ``(tag, text(), depth)`` inside element ``tag``.

    ``depth`` is the depth of the *enclosing* element, so a text event
    has the same depth as the begin/end events that bracket it.  The
    content is retrieved via the :attr:`text` attribute (the paper's
    ``text()`` accessor).
    """

    __slots__ = ("tag", "text", "depth")

    kind = "text"

    def __init__(self, tag: str, text: str, depth: int = 0):
        self.tag = tag
        self.text = text
        self.depth = depth

    def __repr__(self):
        return "TextEvent(%r, %r, depth=%d)" % (self.tag, self.text,
                                                self.depth)

    def __eq__(self, other):
        return (isinstance(other, TextEvent) and self.tag == other.tag
                and self.text == other.text and self.depth == other.depth)

    def __hash__(self):
        return hash(("T", self.tag, self.text, self.depth))


Event = Union[BeginEvent, TextEvent, EndEvent]


def iter_with_depth(events: Iterable[Event]) -> Iterator[Event]:
    """Recompute depths for an event sequence whose depths are unset.

    Useful when events are assembled by hand in tests: depths are
    assigned exactly as a SAX-driven source would assign them (document
    element at depth 1).
    """
    depth = 0
    for event in events:
        if event.kind == "begin":
            depth += 1
            yield BeginEvent(event.tag, event.attrs, depth)
        elif event.kind == "end":
            yield EndEvent(event.tag, depth)
            depth -= 1
        else:
            yield TextEvent(event.tag, event.text, depth)


class Batch(list):
    """One chunk of batched ``(kind, tag_id, payload, depth)`` tuples.

    A plain list plus ``dropped``: how many stream events the producer
    parsed since the previous batch without building a tuple, because
    their tag is missing from a *closed*
    :class:`repro.xsq.fastpath.TagTable` (no compiled plan can react to
    them).  Sessions add it to their event count, so ``RunStats.events``
    stays the full stream length.  Consumers that only iterate tuples
    treat a ``Batch`` as the list it is.  Producers set ``dropped``
    before handing a batch over (a slot, not a dict: one batch per
    feed on the push path).
    """

    __slots__ = ("dropped",)


def event_of(item, names) -> Event:
    """The :class:`Event` for one batched ``(kind, tag_id, payload,
    depth)`` tuple, its tag id read through ``names`` (a
    :class:`~repro.xsq.fastpath.TagTable`'s ``names``): the inverse of
    :func:`batch_events`."""
    kind, tag_id, payload, depth = item
    if kind == BEGIN:
        return BeginEvent(names[tag_id], payload, depth)
    if kind == END:
        return EndEvent(names[tag_id], depth)
    return TextEvent(names[tag_id], payload, depth)


def batch_events(events: Iterable[Event], tags,
                 batch_size: int = 2048) -> Iterator[Batch]:
    """Convert an :class:`Event` iterable into batched-tuple chunks.

    The adapter the fast path uses when a caller hands it pre-built
    events (tests, composed validators) instead of raw XML: each yielded
    :class:`Batch` holds up to ``batch_size``
    ``(kind, tag_id, payload, depth)`` tuples with tags interned through
    ``tags`` (a :class:`repro.xsq.fastpath.TagTable`).  On a closed
    table an event whose tag the table lacks (``intern`` returns None)
    becomes no tuple and is counted in ``Batch.dropped`` instead — the
    same rule the parsers apply (:class:`repro.streaming.push.PushBatchParser`).
    A text event carries its enclosing element's tag, so a dropped
    element's text goes with it.
    """
    intern_tag = tags.intern
    batch = Batch()
    append = batch.append
    dropped = 0
    for event in events:
        tid = intern_tag(event.tag)
        if tid is None:
            dropped += 1
            continue
        kind = event.kind
        if kind == "begin":
            append((BEGIN, tid, event.attrs, event.depth))
        elif kind == "end":
            append((END, tid, None, event.depth))
        else:
            append((TEXT, tid, event.text, event.depth))
        if len(batch) >= batch_size:
            batch.dropped = dropped
            yield batch
            batch = Batch()
            append = batch.append
            dropped = 0
    if batch or dropped:
        batch.dropped = dropped
        yield batch


def events_from_pairs(pairs: Iterable[Tuple[str, object]]) -> List[Event]:
    """Build an event list from a compact test notation.

    Each pair is one of::

        ("begin", "tag")                 ("begin", ("tag", {"id": "1"}))
        ("text", ("tag", "content"))     ("end", "tag")

    Depths are filled in automatically.  This keeps hand-written test
    streams short and unambiguous.
    """
    raw: List[Event] = []
    for kind, payload in pairs:
        if kind == "begin":
            if isinstance(payload, tuple):
                tag, attrs = payload
                raw.append(BeginEvent(tag, dict(attrs)))
            else:
                raw.append(BeginEvent(payload))
        elif kind == "end":
            raw.append(EndEvent(payload))
        elif kind == "text":
            tag, content = payload
            raw.append(TextEvent(tag, content))
        else:
            raise ValueError("unknown event kind: %r" % (kind,))
    return list(iter_with_depth(raw))
