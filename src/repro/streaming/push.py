"""Push-mode parsing: resumable expat parsers behind ``feed(chunk)``.

A pull source (:class:`~repro.streaming.source.CoercedSource`) owns its
input loop: it reads a finite document chunk by chunk until EOF and
yields events.  Push mode inverts that control — the *caller* owns the
loop and hands the parser arbitrary byte/str chunks as they arrive (a
socket, a tail -f, a message bus), and the parser returns whatever
events those chunks completed::

    parser = PushEventParser()
    events = parser.feed(b"<pub><year>20")   # [Begin(pub), Begin(year)]
    events += parser.feed(b"02</year>")      # [] — text waits for a tag
    events += parser.feed(b"</pub>")         # [Text, End, End]
    events += parser.finish()                # []

Both parsers drive one ``pyexpat`` instance in resumable mode
(``Parse(chunk, False)``), so chunk boundaries are invisible: expat
buffers partial tags, entities and CDATA sections internally, and text
runs are flushed only at element boundaries — exactly the coalescing
and whitespace-drop rules of the pull sources.  The differential suite
(``tests/test_push_equivalence.py``) splits documents at every byte
offset and proves the event stream is identical to a single-shot parse.

* :class:`PushEventParser` — yields :class:`~repro.streaming.events.Event`
  objects (the interpreted engines' feed granularity).
* :class:`PushBatchParser` — yields ``(kind, tag_id, payload, depth)``
  tuples with tags interned through a
  :class:`~repro.xsq.fastpath.TagTable` (the compiled fast path's feed
  granularity).  It is the only tuple producer over expat: the pull
  source's ``batches()`` feeds it the source's ``chunks()``
  (:meth:`PushBatchParser.batches`).  On a *closed* table it builds no
  tuple for a tag the table lacks — no plan lowered against the table
  can react to it — and counts the events it so drops in each
  :class:`~repro.streaming.events.Batch`, which keeps the sessions'
  event counts the full stream length (document projection, Marian &
  Siméon, VLDB 2003, applied at the expat callback).

Chunks reach expat as given: a ``str`` chunk is text, never
re-decoded by the document's declared encoding, and the parsers encode
nothing themselves.

``finish()`` ends the document: it gives expat its final empty parse
(which is where "unexpected end of document" truncation errors
surface), returns any tail events, and marks the parser closed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from repro.errors import StreamError
from repro.streaming.events import (
    BEGIN,
    END,
    TEXT,
    Batch,
    BeginEvent,
    EndEvent,
    Event,
    TextEvent,
)

Chunk = Union[str, bytes]

#: Default number of tuples per batch yielded by
#: :meth:`PushBatchParser.batches` (the fast path's feed granularity).
DEFAULT_BATCH_SIZE = 2048


class _PushBase:
    """Shared expat lifecycle: feed/finish state, error wrapping."""

    def __init__(self):
        from xml.parsers import expat
        self._expat_error = expat.ExpatError
        self._parser = expat.ParserCreate()
        # Coalesce character data inside expat where it can; the manual
        # flush at element boundaries covers the splits it cannot see
        # (comments, PIs, CDATA edges, chunk boundaries).
        self._parser.buffer_text = True
        self._out: list = []
        self._text_parts: List[str] = []
        self._depth = 0
        self._finished = False
        self._install_handlers()

    def _install_handlers(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _parse(self, data, final: bool) -> None:
        try:
            self._parser.Parse(data, final)
        except self._expat_error as exc:
            raise StreamError("XML parse error: %s" % exc) from exc

    def _drain(self) -> list:
        # Copy-and-clear (not rebind): the expat handlers hold a bound
        # ``append`` to this exact list.
        out = self._out
        drained = list(out)
        del out[:]
        return drained

    def feed(self, chunk: Chunk) -> list:
        """Parse one chunk; return the events it completed.

        ``chunk`` may be ``bytes`` or ``str``.  A ``str`` is text:
        expat never re-decodes it by the document's declared encoding.
        Chunks may split the document anywhere — mid-tag, mid-entity,
        mid-CDATA.  Mixing the two in one document: the first chunk
        fixes the encoding, UTF-8 after a ``str`` and the declared one
        (UTF-8 by default) after ``bytes``, and later chunks of either
        type are read in it, a ``str`` one as its UTF-8 bytes.
        """
        if self._finished:
            raise StreamError("push parser already finished; create a new "
                              "one per document")
        self._parse(chunk, False)
        return self._drain()

    def finish(self) -> list:
        """End the document; return any tail events.

        Raises :class:`~repro.errors.StreamError` if the document is
        truncated (expat reports "no element found"/unclosed tags here).
        """
        if self._finished:
            return []
        self._finished = True
        self._parse(b"", True)
        return self._drain()

    @property
    def finished(self) -> bool:
        return self._finished


class PushEventParser(_PushBase):
    """Push parser yielding depth-annotated :class:`Event` objects.

    The event stream is identical to
    :func:`repro.streaming.sax_source.parse_events` over the
    concatenated chunks, for every possible chunking.
    """

    def _install_handlers(self) -> None:
        out = self._out.append
        text_parts = self._text_parts
        tag_stack: List[str] = []
        self._tag_stack = tag_stack

        def start(name, attrs):
            if text_parts:
                text = "".join(text_parts)
                del text_parts[:]
                if tag_stack and text.strip():
                    out(TextEvent(tag_stack[-1], text, self._depth))
            self._depth += 1
            tag_stack.append(name)
            out(BeginEvent(name, attrs, self._depth))

        def end(name):
            if text_parts:
                text = "".join(text_parts)
                del text_parts[:]
                if text.strip():
                    out(TextEvent(tag_stack[-1], text, self._depth))
            out(EndEvent(tag_stack.pop(), self._depth))
            self._depth -= 1

        self._parser.StartElementHandler = start
        self._parser.EndElementHandler = end
        self._parser.CharacterDataHandler = text_parts.append

    def feed(self, chunk: Chunk) -> List[Event]:
        return super().feed(chunk)

    def finish(self) -> List[Event]:
        return super().finish()


class PushBatchParser(_PushBase):
    """Push parser yielding batched ``(kind, tag_id, payload, depth)``
    tuples — the compiled fast path's feed representation, and the one
    tuple producer behind every parser-backed batch source (the pull
    :meth:`~repro.streaming.source.CoercedSource.batches` drives it
    through :meth:`batches`).

    ``tags`` is the :class:`~repro.xsq.fastpath.TagTable` the consuming
    :class:`~repro.xsq.fastpath.FastPlan` was lowered against, so tag
    ids agree with the plan's transition-row keys.  Each feed returns a
    :class:`~repro.streaming.events.Batch`.

    On a *closed* table the parser projects the stream: an element
    whose tag the table lacks, and its text, become no tuple; they are
    counted in the batch's ``dropped``.  The parser still tracks depth
    and the enclosing element across a dropped element, so its
    children keep their true depths and a kept parent's text that the
    dropped child splits still arrives, in two runs, under the
    parent's id.  On an open table every tag is interned and the tuple
    stream is the full one.
    """

    def __init__(self, tags):
        self.tags = tags
        super().__init__()

    def _install_handlers(self) -> None:
        ids_get = self.tags.ids.get
        intern_tag = self.tags.intern
        closed = self.tags.closed
        out = Batch()
        dropped = 0
        text_parts = self._text_parts
        clear_parts = text_parts.clear
        tid_stack: List[Optional[int]] = []
        push_tid = tid_stack.append
        pop_tid = tid_stack.pop
        depth = 0
        # Per-callback costs matter here: the id dict is probed inline
        # (the intern method call is only the open table's miss path),
        # whitespace runs are tested with the allocation-free
        # ``isspace``, and depth, the output batch and the event-kind
        # constants are closure cells.  Closure cells beat
        # default-argument locals for these handlers: expat calls them
        # millions of times, and argument processing copies every
        # default into the frame per call.  A dropped element's id slot
        # holds None.
        _B, _T, _E = BEGIN, TEXT, END

        def start(name, attrs):
            nonlocal depth, dropped
            if text_parts:
                text = (text_parts[0] if len(text_parts) == 1
                        else "".join(text_parts))
                clear_parts()
                if tid_stack and not text.isspace():
                    tid = tid_stack[-1]
                    if tid is None:
                        dropped += 1
                    else:
                        out.append((_T, tid, text, depth))
            depth += 1
            tid = ids_get(name)
            if tid is None:
                if closed:
                    dropped += 1
                    push_tid(None)
                    return
                tid = intern_tag(name)
            push_tid(tid)
            out.append((_B, tid, attrs, depth))

        def end(name):
            nonlocal depth, dropped
            tid = pop_tid()
            if tid is None:
                # A dropped element: count its last text run and its end.
                if text_parts:
                    text = (text_parts[0] if len(text_parts) == 1
                            else "".join(text_parts))
                    clear_parts()
                    if not text.isspace():
                        dropped += 1
                dropped += 1
                depth -= 1
                return
            if text_parts:
                text = (text_parts[0] if len(text_parts) == 1
                        else "".join(text_parts))
                clear_parts()
                if not text.isspace():
                    out.append((_T, tid, text, depth))
            out.append((_E, tid, None, depth))
            depth -= 1

        def take(min_size=0):
            # The tuples completed so far, as one Batch carrying the
            # drop count; None while fewer than ``min_size`` wait.
            nonlocal out, dropped
            batch = out
            if len(batch) < min_size:
                return None
            batch.dropped = dropped
            out = Batch()
            dropped = 0
            return batch

        self._take = take
        # The base class's feed() and finish() return ``_drain()``.
        self._drain = take
        self._parser.StartElementHandler = start
        self._parser.EndElementHandler = end
        self._parser.CharacterDataHandler = text_parts.append

    def batches(self, chunks, batch_size: int = DEFAULT_BATCH_SIZE
                ) -> Iterator[Batch]:
        """Parse the whole document in ``chunks``, then finish; yield a
        batch whenever at least ``batch_size`` tuples are waiting, and
        the tail.

        Chunks go to expat as given (a ``str`` chunk is parsed as
        text, whatever encoding its XML declaration names), and a batch
        holds every tuple completed by the chunks before it, so the
        consumer's batch loop keeps its granularity on small chunks and
        no tuple is copied on large ones.
        """
        parse = self._parse
        take = self._take
        for chunk in chunks:
            parse(chunk, False)
            batch = take(batch_size)
            if batch is not None:
                yield batch
        tail = self.finish()
        if tail or tail.dropped:
            yield tail

