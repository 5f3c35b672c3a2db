"""Buffers and the output discipline of Sections 3.3 and 4.3.

Every potential result sits in a buffer until the predicates that govern
it resolve.  The paper gives four buffer operations — ``enqueue``,
``clear``, ``flush``, ``upload`` — and one output rule for the
nondeterministic engine: an item is *marked* "output" as soon as one
match satisfies the query, but it is only *sent* when it reaches the
head of the queue.  Cleared items are removed immediately.  Together
these guarantee (a) no duplicates, (b) document order, and (c) the
memory bound: only items whose membership is still undetermined are
retained.

:class:`OutputQueue` implements that discipline as one global intrusive
doubly-linked FIFO (O(1) enqueue, unlink, and head advance).  Each
:class:`BufferItem` also records the id of the BPDT buffer that
logically owns it; ``upload`` moves ownership up the HPDT tree without
copying, and a :class:`BufferTrace` can record every operation so tests
can check the paper's worked examples step by step.

The interpreted engines put every result through the queue.  The
generated kernels (:mod:`repro.xsq.codegen`) send a determined item at
an empty queue without enqueueing it: the value goes straight to the
sink (through :meth:`OutputQueue.send` for a union member, so it still
takes a seq), and the runtime adds those sends to the enqueue, flush
and emit totals at the end of the document, so the counters read as if
each had passed through the queue at once.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

#: Item lifecycle states.
PENDING = "pending"
OUTPUT = "output"   # some embedding satisfied every predicate
DEAD = "dead"       # every embedding falsified some predicate
SENT = "sent"       # already handed to the sink


class BufferItem:
    """One buffered potential result.

    ``value`` may be finalized after creation (catchall elements are
    complete only at their end event); ``value_ready`` gates emission.
    ``chains`` is managed by the matcher: the number of still-live
    embeddings.  ``owner`` is the ``(level, k)`` id of the BPDT buffer
    currently holding the item.
    """

    __slots__ = ("value", "seq", "state", "value_ready", "live_chains",
                 "owner", "prev", "next", "on_emit")

    def __init__(self, value: Optional[str], seq: int,
                 owner: Tuple[int, int], value_ready: bool = True,
                 on_emit: Optional[Callable[["BufferItem"], None]] = None):
        self.value = value
        self.seq = seq
        self.state = PENDING
        self.value_ready = value_ready
        self.live_chains = 0
        self.owner = owner
        self.prev: Optional["BufferItem"] = None
        self.next: Optional["BufferItem"] = None
        self.on_emit = on_emit

    def __repr__(self):
        return "<BufferItem #%d %s owner=%r %r>" % (
            self.seq, self.state, self.owner,
            (self.value or "")[:30])


class BufferTrace:
    """Optional recorder of buffer operations for example-level tests.

    Records tuples ``(op, bpdt_id, value, depth_vector)`` where ``op``
    is one of ``enqueue``/``upload``/``flush``/``clear``/``send``.

    ``item_seq`` identifies the buffered item the operation touched;
    this base recorder ignores it (keeping the historical 4-tuples), but
    :class:`repro.obs.events.EventTrace` — the general execution trace —
    overrides :meth:`record` and uses it to reconstruct and replay each
    item's journey through the BPDT buffers.
    """

    def __init__(self):
        self.operations: List[Tuple[str, Tuple[int, int], Optional[str], tuple]] = []

    def record(self, op: str, bpdt_id: Tuple[int, int],
               value: Optional[str], depth_vector: tuple = (),
               item_seq: Optional[int] = None) -> None:
        self.operations.append((op, bpdt_id, value, depth_vector))

    def ops(self, op: Optional[str] = None) -> List[tuple]:
        if op is None:
            return list(self.operations)
        return [entry for entry in self.operations if entry[0] == op]


class OutputQueue:
    """Global FIFO implementing the head-marking output rule.

    ``sink`` receives emitted values in order.  The queue never scans:
    state changes touch only the affected item, and emission advances
    from the head.  ``peak_size`` is the memory metric reported by the
    benchmark harness (maximum number of simultaneously buffered,
    undetermined items).
    """

    def __init__(self, sink: List[str],
                 trace: Optional[BufferTrace] = None,
                 seq_source: Optional[Callable[[], int]] = None,
                 track_seqs: bool = False,
                 account=None):
        self.sink = sink
        self.trace = trace
        # Optional repro.obs.accounting.QueryAccount: a live ledger of
        # buffer state (occupancy, bytes, delays) fed by the same call
        # sites that feed the trace.
        self.account = account
        # A shared seq_source lets several queues (grouped multi-query
        # execution) stamp items with one global document order.
        self._seq_source = seq_source
        self.track_seqs = track_seqs
        self.track_ownership = trace is not None or account is not None
        if not self.track_ownership:
            # Un-instrumented runs bind the plain variants once, here,
            # instead of testing ``trace``/``account`` against None on
            # every buffer operation.  The class has no __slots__
            # precisely so this per-instance rebinding works.
            self.new_item = self._new_item_plain
            self.mark_output = self._mark_output_plain
            self.mark_dead = self._mark_dead_plain
            self.value_finalized = self._value_finalized_plain
            self.finish = self._finish_plain
            self._advance = self._advance_plain
        self.reset()

    def reset(self) -> None:
        """Empty the queue and zero its counters for the next document.

        The sink, trace, account and sequence source stay bound; the
        caller empties the sink.  Whatever the last document left
        queued is dropped.
        """
        self._head: Optional[BufferItem] = None
        self._tail: Optional[BufferItem] = None
        self._size = 0
        self._next_seq = 0
        self.emitted_seqs: List[int] = []
        self.peak_size = 0
        self.enqueued_total = 0
        self.cleared_total = 0
        self.emitted_total = 0
        self.flushed_total = 0
        # Uploads are performed only when a trace or an account is
        # attached (see track_ownership): ownership hops change no
        # output, so the matcher skips the arithmetic otherwise.  The
        # counter is therefore 0 in fully un-observed runs.
        self.uploaded_total = 0

    def __len__(self) -> int:
        return self._size

    def ops_total(self) -> dict:
        """Lifetime operation counters as one dict (profiler/obs export)."""
        return {
            "enqueued": self.enqueued_total,
            "cleared": self.cleared_total,
            "emitted": self.emitted_total,
            "flushed": self.flushed_total,
            "uploaded": self.uploaded_total,
        }

    def new_item(self, value: Optional[str], owner: Tuple[int, int],
                 value_ready: bool = True,
                 on_emit: Optional[Callable[[BufferItem], None]] = None,
                 depth_vector: tuple = (),
                 governed: int = 0) -> BufferItem:
        """Enqueue a fresh pending item at the tail.

        ``governed`` is the number of unresolved predicates governing
        the item at enqueue time; only the accountant consumes it (the
        auditor's necessary-buffering check), so callers compute it
        only when an account is attached.
        """
        if self._seq_source is not None:
            seq = self._seq_source()
        else:
            seq = self._next_seq
            self._next_seq += 1
        item = BufferItem(value, seq, owner,
                          value_ready=value_ready, on_emit=on_emit)
        if self._tail is None:
            self._head = self._tail = item
        else:
            item.prev = self._tail
            self._tail.next = item
            self._tail = item
        self._size += 1
        self.enqueued_total += 1
        if self._size > self.peak_size:
            self.peak_size = self._size
        if self.trace is not None:
            self.trace.record("enqueue", owner, value, depth_vector,
                              item_seq=item.seq)
        if self.account is not None:
            self.account.on_enqueue(item, governed, depth_vector)
        return item

    def send(self, value: str) -> None:
        """Hand a determined value to the sink without enqueueing it.

        The generated kernels' direct path for a union member: the value
        takes the next seq exactly as :meth:`new_item` would have, so
        the union's order and dedupe see it like any emitted item.
        Only valid while the queue is empty (nothing may be ahead of
        the value); the caller counts it.
        """
        if self._seq_source is not None:
            seq = self._seq_source()
        else:
            seq = self._next_seq
            self._next_seq += 1
        self.emitted_seqs.append(seq)
        self.sink.append(value)

    def upload(self, item: BufferItem, new_owner: Tuple[int, int],
               depth_vector: tuple = ()) -> None:
        """Move the item to an ancestor BPDT's buffer (ownership only)."""
        old_owner = item.owner
        item.owner = new_owner
        self.uploaded_total += 1
        if self.trace is not None:
            self.trace.record("upload", new_owner, item.value, depth_vector,
                              item_seq=item.seq)
        if self.account is not None:
            self.account.on_upload(item, old_owner)

    def mark_output(self, item: BufferItem, depth_vector: tuple = ()) -> None:
        """Some embedding satisfied all predicates: flush when possible.

        The item is emitted immediately only if it has reached the head
        of the queue and its value is final; otherwise it waits, marked,
        exactly as Section 4.3 prescribes.  The flush is counted (and
        traced) once, on the first transition to OUTPUT — repeated
        marks from other embeddings are no-ops.
        """
        if item.state in (DEAD, SENT):
            return
        if item.state != OUTPUT:
            self.flushed_total += 1
            if self.trace is not None:
                self.trace.record("flush", item.owner, item.value,
                                  depth_vector, item_seq=item.seq)
            if self.account is not None:
                self.account.on_flush(item)
        item.state = OUTPUT
        self._advance()

    def mark_dead(self, item: BufferItem, depth_vector: tuple = ()) -> None:
        """Every embedding failed: clear the item from its buffer now."""
        if item.state in (DEAD, SENT, OUTPUT):
            # An item already marked "output" stays in the result even if
            # other embeddings later fail (Example 2's duplicate rule).
            return
        item.state = DEAD
        self.cleared_total += 1
        if self.trace is not None:
            self.trace.record("clear", item.owner, item.value, depth_vector,
                              item_seq=item.seq)
        if self.account is not None:
            self.account.on_clear(item)
        self._unlink(item)
        self._advance()

    def value_finalized(self, item: BufferItem) -> None:
        """The item's value is now complete (catchall end event)."""
        item.value_ready = True
        if self.account is not None:
            self.account.on_value_final(item)
        if item.state == OUTPUT:
            self._advance()

    def finish(self) -> None:
        """End of stream: every predicate has resolved; drain the queue."""
        self._advance()
        if self.account is not None:
            self.account.on_finish(self)

    # -- plain (uninstrumented) variants ---------------------------------
    #
    # Bound over the instrumented methods in __init__ when neither a
    # trace nor an account is attached: byte-for-byte the same counter
    # and linked-list mutations, minus the per-operation None-checks.
    # Keep these in lockstep with their instrumented twins above — the
    # obs-overhead benchmark's structural test asserts the bindings and
    # the equivalence suite asserts identical RunStats either way.

    def _new_item_plain(self, value: Optional[str], owner: Tuple[int, int],
                        value_ready: bool = True,
                        on_emit: Optional[Callable[[BufferItem], None]] = None,
                        depth_vector: tuple = (),
                        governed: int = 0) -> BufferItem:
        if self._seq_source is not None:
            seq = self._seq_source()
        else:
            seq = self._next_seq
            self._next_seq += 1
        item = BufferItem(value, seq, owner,
                          value_ready=value_ready, on_emit=on_emit)
        if self._tail is None:
            self._head = self._tail = item
        else:
            item.prev = self._tail
            self._tail.next = item
            self._tail = item
        self._size += 1
        self.enqueued_total += 1
        if self._size > self.peak_size:
            self.peak_size = self._size
        return item

    def _mark_output_plain(self, item: BufferItem,
                           depth_vector: tuple = ()) -> None:
        if item.state in (DEAD, SENT):
            return
        if item.state != OUTPUT:
            self.flushed_total += 1
        item.state = OUTPUT
        self._advance()

    def _mark_dead_plain(self, item: BufferItem,
                         depth_vector: tuple = ()) -> None:
        if item.state in (DEAD, SENT, OUTPUT):
            return
        item.state = DEAD
        self.cleared_total += 1
        self._unlink(item)
        self._advance()

    def _value_finalized_plain(self, item: BufferItem) -> None:
        item.value_ready = True
        if item.state == OUTPUT:
            self._advance()

    def _finish_plain(self) -> None:
        self._advance()

    def _advance_plain(self) -> None:
        head = self._head
        while head is not None and head.state == OUTPUT and head.value_ready:
            self._unlink(head)
            head.state = SENT
            self.emitted_total += 1
            if self.track_seqs:
                self.emitted_seqs.append(head.seq)
            if head.on_emit is not None:
                head.on_emit(head)
            else:
                self.sink.append(head.value if head.value is not None else "")
            head = self._head

    # -- internals -------------------------------------------------------

    def _unlink(self, item: BufferItem) -> None:
        if item.prev is not None:
            item.prev.next = item.next
        else:
            self._head = item.next
        if item.next is not None:
            item.next.prev = item.prev
        else:
            self._tail = item.prev
        item.prev = item.next = None
        self._size -= 1

    def _advance(self) -> None:
        head = self._head
        while head is not None and head.state == OUTPUT and head.value_ready:
            self._unlink(head)
            head.state = SENT
            self.emitted_total += 1
            if self.track_seqs:
                self.emitted_seqs.append(head.seq)
            if self.trace is not None:
                self.trace.record("send", head.owner, head.value, (),
                                  item_seq=head.seq)
            if self.account is not None:
                self.account.on_send(head)
            if head.on_emit is not None:
                head.on_emit(head)
            else:
                self.sink.append(head.value if head.value is not None else "")
            head = self._head
