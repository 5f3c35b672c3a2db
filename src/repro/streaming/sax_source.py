"""The ``xml.sax`` pull producer (expat underneath).

This is the analogue of the paper's Xerces-driven input path: the
document's chunks, as :meth:`~repro.streaming.source.CoercedSource.chunks`
renders them, are fed to an incremental SAX parser one at a time, and
the events each chunk completes are yielded before the next is fed, so
a query engine never needs the whole document in memory.

* :func:`sax_events` — the producer over an iterable of raw chunks; it
  holds no stream of its own.
* :func:`parse_events` — the same over anything
  :func:`~repro.streaming.source.coerce_source` accepts.

The compiled fast path's batched tuples do not come through here: they
come from :class:`repro.streaming.push.PushBatchParser`, which drives
``pyexpat`` directly, fed the same chunks.
"""

from __future__ import annotations

import xml.sax
from typing import Iterable, Iterator

from repro.errors import StreamError
from repro.streaming.events import BeginEvent, EndEvent, Event, TextEvent
from repro.streaming.source import DEFAULT_CHUNK_SIZE, coerce_source


class _CollectingHandler(xml.sax.ContentHandler):
    """SAX handler that converts callbacks into depth-annotated events.

    Adjacent character callbacks inside one element are coalesced into a
    single :class:`TextEvent` (expat splits text at buffer boundaries and
    entity references; the paper's model has one text event per run of
    text).  Whitespace-only runs between elements are dropped: they are
    formatting, not content, and every system in the study ignores them.
    """

    def __init__(self, out: list):
        super().__init__()
        self._out = out
        self._depth = 0
        self._tag_stack = []
        self._text_parts = []

    def _emit_text(self):
        parts = self._text_parts
        if not parts:
            return
        # Single-part runs (the common case with buffer_text) pass the
        # parser's str through unjoined -- zero-copy into the event.
        text = parts[0] if len(parts) == 1 else "".join(parts)
        self._text_parts = []
        if not self._tag_stack:
            return
        if text.isspace():
            return
        self._out.append(TextEvent(self._tag_stack[-1], text, self._depth))

    def startElement(self, name, attrs):
        self._emit_text()
        self._depth += 1
        self._tag_stack.append(name)
        self._out.append(BeginEvent(name, dict(attrs), self._depth))

    def endElement(self, name):
        self._emit_text()
        self._out.append(EndEvent(name, self._depth))
        self._depth -= 1
        self._tag_stack.pop()

    def characters(self, content):
        self._text_parts.append(content)


def sax_events(chunks: Iterable) -> Iterator[Event]:
    """Yield depth-annotated events for a document given as ``str`` /
    ``bytes`` chunks, parsed by ``xml.sax``.

    Chunks go to the parser as given: a ``str`` chunk is text, never
    re-decoded by the document's declared encoding.
    """
    out: list = []
    parser = xml.sax.make_parser()
    parser.setFeature(xml.sax.handler.feature_namespaces, False)
    parser.setFeature(xml.sax.handler.feature_external_ges, False)
    parser.setContentHandler(_CollectingHandler(out))
    try:
        for chunk in chunks:
            parser.feed(chunk)
            if out:
                yield from out
                out.clear()
        parser.close()
    except xml.sax.SAXParseException as exc:
        raise StreamError("XML parse error: %s" % exc) from exc
    yield from out


def parse_events(source, chunk_size: int = DEFAULT_CHUNK_SIZE
                 ) -> Iterator[Event]:
    """Yield depth-annotated SAX events for ``source``, incrementally.

    ``source`` is anything :func:`~repro.streaming.source.coerce_source`
    accepts; it is read ``chunk_size`` characters or bytes at a time.

    >>> [e.kind for e in parse_events("<a><b>hi</b></a>")]
    ['begin', 'begin', 'text', 'end', 'end']
    """
    return coerce_source(source).events(chunk_size)
