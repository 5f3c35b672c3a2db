"""Streaming XML substrate: the SAX-with-depth data model of Section 2.1.

An XML stream is modelled as a sequence of events ``e_i`` drawn from
``B ∪ T ∪ E``:

* ``B`` — :class:`BeginEvent` ``(tag, attrs, depth)``
* ``T`` — :class:`TextEvent` ``(tag, text, depth)``
* ``E`` — :class:`EndEvent` ``(tag, depth)``

Every source reaches a parser the same way:
:func:`coerce_source` (:mod:`repro.streaming.source`) classifies what
the engines accept — path, markup string, bytes, file-like object,
iterable of raw chunks, or iterable of events — and
:meth:`CoercedSource.chunks` is the only code that opens, reads and
closes a document.  A ``str`` is text everywhere: it reaches expat as
``str`` and is never re-decoded by its declared encoding.  The chunks
feed one of two producers:

* :func:`parse_events` / :meth:`CoercedSource.events` — ``xml.sax``
  (expat) yielding :class:`Event` objects, the analogue of the paper's
  Xerces-based parser (the interpreted engines' feed).
* :meth:`CoercedSource.batches` — :class:`PushBatchParser`
  (:mod:`repro.streaming.push`), ``pyexpat`` yielding interned tuples
  (the compiled fast path's feed).

:class:`PushEventParser` / :class:`PushBatchParser` are also the
resumable *push-mode* parsers behind the engines' ``feed(chunk)`` API:
the caller owns the input loop and chunk boundaries are invisible.
:class:`TextEventSource` is a self-contained pure-Python tokenizer, the
independent reference the differential tests check expat against.

:class:`WellFormednessPDA` is the simple pushdown automaton of
Section 3.1 / Figure 4(a) that checks tag balance, and
:mod:`repro.streaming.serialize` re-serializes event runs (used by the
catchall ``*̄`` output mode).
"""

from repro.streaming.events import (
    BeginEvent,
    EndEvent,
    TextEvent,
    Event,
    events_from_pairs,
    iter_with_depth,
)
from repro.streaming.sax_source import parse_events
from repro.streaming.source import CoercedSource, coerce_source
from repro.streaming.push import PushBatchParser, PushEventParser
from repro.streaming.textparser import TextEventSource, tokenize_xml
from repro.streaming.wellformed import WellFormednessPDA, check_well_formed
from repro.streaming.serialize import (
    EventSerializer,
    begin_tag_text,
    escape_attr,
    escape_text,
    serialize_events,
)

__all__ = [
    "CoercedSource",
    "coerce_source",
    "PushEventParser",
    "PushBatchParser",
    "BeginEvent",
    "EndEvent",
    "TextEvent",
    "Event",
    "events_from_pairs",
    "iter_with_depth",
    "parse_events",
    "TextEventSource",
    "tokenize_xml",
    "WellFormednessPDA",
    "check_well_formed",
    "EventSerializer",
    "begin_tag_text",
    "escape_text",
    "escape_attr",
    "serialize_events",
]
