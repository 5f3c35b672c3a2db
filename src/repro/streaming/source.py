"""One front door for every input kind: :func:`coerce_source`.

Before this module, each engine family grew its own source sniffing —
the interpreted engines' ``_as_events``, the fast path's
``_as_batches``, the bulk runner's ``normalize_source`` — and they
drifted (none of them, for instance, accepted an iterable of raw
chunks).  :func:`coerce_source` is the single classification point; the
document sessions (:mod:`repro.xsq.push`), the push façade and the bulk
runner all route through it.

Accepted source kinds:

========================  =============================================
path (``str``)            a file on disk (``.gz`` decompresses)
markup (``str``)          XML text itself (starts with ``<``)
``bytes``                 XML bytes
``bytearray``             XML bytes in a mutable buffer
``memoryview``            XML bytes viewed without copying
file-like                 anything with ``.read`` (binary or text)
iterable of chunks        str/bytes pieces of one document, any split
iterable of events        pre-built :class:`~repro.streaming.events.Event`
========================  =============================================

The result is a :class:`CoercedSource` that renders the input in any of
the representations an engine wants: :meth:`~CoercedSource.events` (the
interpreted engines), :meth:`~CoercedSource.batches` (the fast path's
interned tuples), or :meth:`~CoercedSource.read_bytes` (the bulk
runner, which must materialize non-path sources to ship them to a
worker process).
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterable, Iterator, Optional, Union

from repro.errors import StreamError

#: Classification results; ``kind`` on :class:`CoercedSource`.
STREAM = "stream"    # path / markup / bytes / file-like -> one byte stream
CHUNKS = "chunks"    # iterable of str/bytes pieces
EVENTS = "events"    # iterable of Event objects


class BufferReader:
    """Chunked binary reads over a bytes-like buffer, no up-front copy.

    ``io.BytesIO(buf)`` copies the whole buffer at construction; for a
    large ``bytearray`` or ``memoryview`` that doubles peak memory
    before parsing even starts.  This reader slices the underlying
    buffer lazily, so only one parser chunk is materialized at a time.
    """

    __slots__ = ("_view", "_pos")

    def __init__(self, buffer):
        self._view = memoryview(buffer)
        self._pos = 0

    def read(self, size: int = -1) -> bytes:
        view = self._view
        if size is None or size < 0:
            chunk = view[self._pos:]
            self._pos = len(view)
        else:
            chunk = view[self._pos:self._pos + size]
            self._pos += len(chunk)
        return bytes(chunk)

    def close(self):
        self._view.release()


def open_xml_input(source: Union[str, bytes, bytearray, memoryview,
                                 IO]) -> IO:
    """Normalize a ``STREAM``-kind source to a readable binary stream.

    A ``str`` is a file path if such a file exists, otherwise it is
    taken to be XML text itself (the common case in tests and examples,
    where documents are inline literals).  Bytes-like buffers
    (``bytes``/``bytearray``/``memoryview``) are wrapped in a
    :class:`BufferReader` rather than ``io.BytesIO`` so no full-buffer
    copy is made.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        return BufferReader(source)
    if isinstance(source, str):
        looks_like_markup = source.lstrip()[:1] == "<"
        if not looks_like_markup and os.path.exists(source):
            if source.endswith(".gz"):
                import gzip
                return gzip.open(source, "rb")
            return open(source, "rb")
        if looks_like_markup:
            return io.BytesIO(source.encode("utf-8"))
        if os.path.exists(source):
            return open(source, "rb")
        raise StreamError("input is neither XML text nor an existing file: %r"
                          % source[:80])
    if hasattr(source, "read"):
        return source
    raise StreamError("unsupported XML input type: %r" % type(source))


class CoercedSource:
    """A classified source, renderable as events, batches, or bytes."""

    __slots__ = ("kind", "raw", "_iterable")

    def __init__(self, kind: str, raw, iterable=None):
        self.kind = kind
        self.raw = raw
        self._iterable = iterable

    def events(self, chunk_size: Optional[int] = None) -> Iterator:
        """The source as depth-annotated :class:`Event` objects."""
        if self.kind == STREAM:
            from repro.streaming.sax_source import (
                DEFAULT_CHUNK_SIZE, parse_events)
            return parse_events(self.raw, chunk_size=(chunk_size
                                or DEFAULT_CHUNK_SIZE))
        if self.kind == CHUNKS:
            from repro.streaming.push import events_from_chunks
            return events_from_chunks(self._iterable)
        return iter(self._iterable)

    def batches(self, tags, batch_size: Optional[int] = None) -> Iterator[list]:
        """The source as ``(kind, tag_id, payload, depth)`` tuple chunks.

        ``tags`` is the consuming plan's
        :class:`~repro.xsq.fastpath.TagTable`.
        """
        from repro.streaming.push import DEFAULT_BATCH_SIZE
        batch_size = batch_size or DEFAULT_BATCH_SIZE
        if self.kind == STREAM:
            from repro.streaming.sax_source import parse_events_batched
            return parse_events_batched(self.raw, tags, batch_size=batch_size)
        if self.kind == CHUNKS:
            from repro.streaming.push import batches_from_chunks
            return batches_from_chunks(self._iterable, tags,
                                       batch_size=batch_size)
        from repro.streaming.events import batch_events
        return batch_events(self._iterable, tags, batch_size=batch_size)

    def read_bytes(self) -> bytes:
        """Materialize the whole document (the bulk runner's shape).

        Event-kind sources cannot round-trip to bytes losslessly
        (whitespace runs were already dropped), so they are rejected —
        the bulk runner ships engines bytes, not events.
        """
        if self.kind == STREAM:
            stream = open_xml_input(self.raw)
            try:
                data = stream.read()
            finally:
                stream.close()
            if isinstance(data, str):
                data = data.encode("utf-8")
            return data
        if self.kind == CHUNKS:
            parts = []
            for chunk in self._iterable:
                parts.append(chunk.encode("utf-8")
                             if isinstance(chunk, str) else chunk)
            return b"".join(parts)
        raise StreamError("an event iterable cannot be materialized to "
                          "bytes; pass a path, text, bytes, a stream, or "
                          "an iterable of raw chunks")

    def __repr__(self):
        return "<CoercedSource kind=%s>" % self.kind


def coerce_source(source) -> CoercedSource:
    """Classify ``source`` into a :class:`CoercedSource`.

    Iterables are classified by peeking at their first element (str or
    bytes means raw chunks; anything else means pre-built events); the
    peeked element is chained back, so generators work.  An empty
    iterable is an empty event stream.
    """
    if (isinstance(source, (str, bytes, bytearray, memoryview))
            or hasattr(source, "read")):
        return CoercedSource(STREAM, source)
    try:
        iterator = iter(source)
    except TypeError:
        raise StreamError("unsupported XML input type: %r" % type(source))
    first = next(iterator, None)
    if first is None:
        return CoercedSource(EVENTS, source, iterable=())
    import itertools
    rest = itertools.chain((first,), iterator)
    if isinstance(first, (str, bytes)):
        return CoercedSource(CHUNKS, source, iterable=rest)
    return CoercedSource(EVENTS, source, iterable=rest)
