"""Streaming event source built on ``xml.sax`` (expat underneath).

This is the analogue of the paper's Xerces-driven input path: the
document is fed to an incremental SAX parser chunk by chunk and events
are yielded as soon as the parser produces them, so a query engine never
needs the whole document in memory.

Two entry points:

* :func:`parse_events` — convenience generator over a string, bytes,
  path, or file-like object.
* :class:`SaxEventSource` — the underlying pull-based source with an
  explicit chunk size, reusable by the benchmark harness (which needs to
  time the parse phase separately).

The compiled fast path's batched tuples (:meth:`SaxEventSource.batches`,
:func:`parse_events_batched`) come from the one tuple producer,
:class:`repro.streaming.push.PushBatchParser`, fed the same chunks.  On
a closed :class:`~repro.xsq.fastpath.TagTable` that producer projects
the stream: a tag the table lacks gets no tuple, only a count in the
:class:`~repro.streaming.events.Batch`'s ``dropped``.
"""

from __future__ import annotations

import xml.sax
from collections import deque
from typing import IO, Iterable, Iterator, Union

from repro.errors import StreamError
from repro.streaming.push import DEFAULT_BATCH_SIZE, PushBatchParser
from repro.streaming.source import open_xml_input
from repro.streaming.events import (
    Batch,
    BeginEvent,
    EndEvent,
    Event,
    TextEvent,
)

#: Default read granularity; one memory page's worth of text keeps the
#: parser busy without buffering large spans of the stream.
DEFAULT_CHUNK_SIZE = 64 * 1024


class _CollectingHandler(xml.sax.ContentHandler):
    """SAX handler that converts callbacks into depth-annotated events.

    Adjacent character callbacks inside one element are coalesced into a
    single :class:`TextEvent` (expat splits text at buffer boundaries and
    entity references; the paper's model has one text event per run of
    text).  Whitespace-only runs between elements are dropped: they are
    formatting, not content, and every system in the study ignores them.
    """

    def __init__(self, out: deque):
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


class SaxEventSource:
    """Pull-based streaming event source over any XML input.

    Iterating the source yields :class:`Event` objects.  Input may be a
    path, an XML string, ``bytes``, or a file-like object.  The input is
    consumed incrementally in ``chunk_size`` pieces.
    """

    def __init__(self, source: Union[str, bytes, IO],
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        self._stream = open_xml_input(source)
        self._chunk_size = chunk_size

    def __iter__(self) -> Iterator[Event]:
        out: deque = deque()
        handler = _CollectingHandler(out)
        parser = xml.sax.make_parser()
        parser.setFeature(xml.sax.handler.feature_namespaces, False)
        parser.setFeature(xml.sax.handler.feature_external_ges, False)
        parser.setContentHandler(handler)
        try:
            while True:
                chunk = self._stream.read(self._chunk_size)
                if not chunk:
                    break
                parser.feed(chunk)
                while out:
                    yield out.popleft()
            parser.close()
        except xml.sax.SAXParseException as exc:
            raise StreamError("XML parse error: %s" % exc) from exc
        finally:
            self._stream.close()
        while out:
            yield out.popleft()

    def batches(self, tags, batch_size: int = DEFAULT_BATCH_SIZE
                ) -> Iterator[Batch]:
        """Yield chunks of ``(kind, tag_id, payload, depth)`` tuples.

        The fast-path feed: tags are interned once into ``tags`` (a
        :class:`repro.xsq.fastpath.TagTable`), events are plain tuples,
        and the consumer receives them ``batch_size`` at a time so its
        interpreter loop can hoist attribute lookups out of the
        per-event path.  On an open table the content and order are
        identical to ``iter(self)`` — same text coalescing (one text
        event per run, flushed only at the next element boundary, so
        splits at entity references, comments, and buffer edges never
        show) and the same whitespace-only drop; the differential
        equivalence tests compare the two streams.  On a closed table
        the tuples of tags it lacks are left out and counted in each
        :class:`~repro.streaming.events.Batch`'s ``dropped``.

        The input is read ``chunk_size`` bytes at a time into the one
        batch producer, the resumable
        :class:`~repro.streaming.push.PushBatchParser`, which drives
        ``pyexpat`` directly rather than going through ``xml.sax``: the
        SAX layer builds an ``AttributesImpl`` and crosses several
        dispatch hops per element, while expat's raw callbacks hand over
        a plain attrs dict built in C.  That is most of the batched
        boundary's throughput edge over the Event path.
        """
        stream = self._stream
        read, size = stream.read, self._chunk_size

        def chunks():
            while True:
                chunk = read(size)
                if not chunk:
                    return
                yield chunk

        try:
            yield from PushBatchParser(tags).batches(chunks(), batch_size)
        finally:
            stream.close()


def parse_events(source: Union[str, bytes, IO],
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[Event]:
    """Yield depth-annotated SAX events for ``source``, incrementally.

    >>> [e.kind for e in parse_events("<a><b>hi</b></a>")]
    ['begin', 'begin', 'text', 'end', 'end']
    """
    return iter(SaxEventSource(source, chunk_size=chunk_size))


def parse_events_batched(source: Union[str, bytes, IO], tags,
                         chunk_size: int = DEFAULT_CHUNK_SIZE,
                         batch_size: int = DEFAULT_BATCH_SIZE
                         ) -> Iterator[list]:
    """Batched-tuple variant of :func:`parse_events` for the fast path.

    ``tags`` is the :class:`repro.xsq.fastpath.TagTable` that receives
    the interned tag ids; see :meth:`SaxEventSource.batches`.

    >>> from repro.xsq.fastpath import TagTable
    >>> t = TagTable()
    >>> [e[:2] for batch in parse_events_batched("<a><b>hi</b></a>", t)
    ...  for e in batch]
    [(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)]
    >>> t.close()   # closed: <c> has no id, so it is dropped and counted
    >>> [(e[:2], batch.dropped) for batch in parse_events_batched(
    ...     "<a><c>x</c><b/></a>", t) for e in batch]
    [((0, 0), 3), ((0, 1), 3), ((2, 1), 3), ((2, 0), 3)]
    """
    return SaxEventSource(source, chunk_size=chunk_size).batches(
        tags, batch_size=batch_size)
