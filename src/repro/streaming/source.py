"""One front door for every input kind: :func:`coerce_source`.

:func:`coerce_source` is the single classification point for what the
engines accept; the document sessions (:mod:`repro.xsq.push`), the push
façade and the bulk runner all route through it, and
:meth:`CoercedSource.chunks` is the only code that opens, reads, closes
a document, so every parser is fed the same pieces.

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

One rule for ``str``: it is text.  A markup string, a text-mode
stream's reads and ``str`` chunks reach expat as ``str`` and are never
re-decoded by the encoding their XML declaration names (pyexpat's
``Parse(str)`` parses text as text); only ``bytes`` are decoded by the
declaration.

The result is a :class:`CoercedSource` that renders the input in any of
the representations a consumer wants: :meth:`~CoercedSource.chunks`
(raw pieces, the bulk runner's shape), :meth:`~CoercedSource.events`
(the interpreted engines) or :meth:`~CoercedSource.batches` (the fast
path's interned tuples).
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator, Optional

from repro.errors import StreamError
from repro.streaming.events import batch_events
from repro.streaming.push import DEFAULT_BATCH_SIZE, PushBatchParser

#: Classification results; ``kind`` on :class:`CoercedSource`.
STREAM = "stream"    # path / markup / bytes / file-like -> one document
CHUNKS = "chunks"    # iterable of str/bytes pieces
EVENTS = "events"    # iterable of Event objects

#: Default read granularity; one memory page's worth of text keeps the
#: parser busy without buffering large spans of the stream.
DEFAULT_CHUNK_SIZE = 64 * 1024


class CoercedSource:
    """A classified source, renderable as chunks, events or batches.

    ``path`` is the file name when the source is a path, else ``None``.
    """

    __slots__ = ("kind", "raw", "path", "_iterable")

    def __init__(self, kind: str, raw, iterable=None,
                 path: Optional[str] = None):
        self.kind = kind
        self.raw = raw
        self.path = path
        self._iterable = iterable

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator:
        """The document as ``str``/``bytes`` pieces of at most
        ``chunk_size`` characters or bytes.

        A path (``.gz`` decompressed) and a file-like object are read
        ``chunk_size`` at a time and closed at the end; bytes-like
        buffers are sliced without an up-front copy; a markup ``str``
        is sliced as text; a chunk iterable passes through unchanged.
        Event-kind sources have no raw form (whitespace runs were
        already dropped) and are rejected.
        """
        if self.kind == CHUNKS:
            return self._iterable
        if self.kind == EVENTS:
            raise StreamError("an event iterable has no raw document; "
                              "pass a path, text, bytes, a stream, or an "
                              "iterable of raw chunks")
        return _read(self.raw, self.path, chunk_size)

    def events(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator:
        """The source as depth-annotated :class:`Event` objects."""
        if self.kind == EVENTS:
            return iter(self._iterable)
        from repro.streaming.sax_source import sax_events
        return sax_events(self.chunks(chunk_size))

    def batches(self, tags, batch_size: Optional[int] = None) -> Iterator[list]:
        """The source as ``(kind, tag_id, payload, depth)`` tuple chunks.

        ``tags`` is the consuming plan's
        :class:`~repro.xsq.fastpath.TagTable`.
        """
        batch_size = batch_size or DEFAULT_BATCH_SIZE
        if self.kind == EVENTS:
            return batch_events(self._iterable, tags, batch_size=batch_size)
        return PushBatchParser(tags).batches(self.chunks(), batch_size)

    def __repr__(self):
        return "<CoercedSource kind=%s>" % self.kind


def _read(raw, path: Optional[str], size: int) -> Iterator:
    """Yield ``raw`` (a ``STREAM``-kind source) in ``size`` pieces."""
    if path is not None:
        if not os.path.exists(path):
            raise StreamError("input is neither XML text nor an existing "
                              "file: %r" % path[:80])
        if path.endswith(".gz"):
            import gzip
            stream = gzip.open(path, "rb")
        else:
            stream = open(path, "rb")
    elif isinstance(raw, (str, bytes)):
        # A whole-string slice is the string itself: no copy for a
        # document shorter than one chunk.
        for start in range(0, len(raw), size):
            yield raw[start:start + size]
        return
    elif isinstance(raw, (bytearray, memoryview)):
        view = memoryview(raw)
        try:
            for start in range(0, len(view), size):
                yield bytes(view[start:start + size])
        finally:
            view.release()
        return
    else:
        stream = raw
    read = stream.read
    try:
        while True:
            chunk = read(size)
            if not chunk:
                return
            yield chunk
    finally:
        stream.close()


def coerce_source(source) -> CoercedSource:
    """Classify ``source`` into a :class:`CoercedSource`.

    A ``str`` is markup when it starts with ``<`` (after whitespace),
    otherwise a file path.  Iterables are classified by peeking at
    their first element (str or bytes means raw chunks; anything else
    means pre-built events); the peeked element is chained back, so
    generators work.  An empty iterable is an empty event stream.
    """
    if isinstance(source, str):
        if source.lstrip()[:1] == "<":
            return CoercedSource(STREAM, source)
        return CoercedSource(STREAM, source, path=source)
    if (isinstance(source, (bytes, bytearray, memoryview))
            or hasattr(source, "read")):
        return CoercedSource(STREAM, source)
    try:
        iterator = iter(source)
    except TypeError:
        raise StreamError("unsupported XML input type: %r" % type(source))
    first = next(iterator, None)
    if first is None:
        return CoercedSource(EVENTS, source, iterable=())
    rest = itertools.chain((first,), iterator)
    if isinstance(first, (str, bytes)):
        return CoercedSource(CHUNKS, source, iterable=rest)
    return CoercedSource(EVENTS, source, iterable=rest)
