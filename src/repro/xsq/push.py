"""Engine-side push handles: one incrementally-fed document per handle.

The pull entry points (``run`` / ``iter_results``) own their event
loop.  A *push handle* inverts that: the engine exposes the per-document
runtime it would have driven itself, and the caller feeds events (or
batched tuples) whenever they arrive, collecting whatever results each
feed completed.  The handles here are the engine-internal layer —
:class:`repro.api.PushSession` wraps them together with a resumable
parser (:mod:`repro.streaming.push`) to accept raw byte chunks.

Result semantics match the pull mode exactly (the chunk-split
differential suite proves it byte-for-byte):

* plain queries: every feed returns the results it newly determined, in
  document order; concatenating all feeds plus ``finish()`` equals
  ``run()``.
* aggregate queries: by default the single final value surfaces at
  ``finish()`` (the ``run()`` shape); with ``streaming_agg=True`` each
  feed returns the intermediate values the paper's ``stat.update``
  emits for unbounded streams (the ``iter_results`` shape).

``finish()`` flushes the runtime's buffer discipline, captures
``RunStats`` onto the owning engine (so ``engine.stats`` /
``CompiledQuery.stats`` work identically to pull mode) and closes the
handle.  Handles are single-document: create a new one per document.

The fast-path handle drives its runtime's generated kernel
(:mod:`repro.xsq.codegen`), the same one pull loops run -- the
chunk-split suite covers both.

Every handle carries a ``latency`` slot (default ``None``) for an
optional :class:`repro.obs.latency.LatencyRecorder`: when attached (the
serve pipeline does this per stream), each feed call stamps entry and
emission timestamps onto per-result provenance records.  Detached, the
cost is one attribute load and a ``None`` test per feed call — the same
discipline as ``obs is None``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import StreamError
from repro.streaming.events import BEGIN, END, TEXT
from repro.xsq.engine import RunStats

#: Feed representations a handle accepts (repro.api.PushSession reads
#: this to pick the matching resumable parser).
FEED_EVENTS = "events"
FEED_BATCH = "batch"
FEED_NONE = "none"


class EventPushHandle:
    """Push handle over an interpreted runtime (XSQ-F or XSQ-NC).

    ``runtime`` is any object with ``feed(event)`` / ``finish()`` and a
    ``queue`` (:class:`~repro.xsq.buffers.OutputQueue`) draining into
    ``sink`` — both interpreted runtimes qualify unchanged.
    """

    feed_mode = FEED_EVENTS

    def __init__(self, engine, runtime, sink: list, stat=None,
                 streaming_agg: bool = False,
                 on_event: Optional[Callable] = None):
        self._engine = engine
        self._runtime = runtime
        self._sink = sink
        self._stat = stat
        self._streaming_agg = streaming_agg
        self._on_event = on_event
        self._count = 0
        self.latency = None
        self.closed = False

    @property
    def events_fed(self) -> int:
        return self._count

    def feed_events(self, events) -> list:
        """Feed a batch of events; return the results they determined."""
        if self.closed:
            raise StreamError("push handle already finished")
        latency = self.latency
        if latency is not None:
            latency.handle_entry()
        count = self._count
        feed = self._runtime.feed
        on_event = self._on_event
        if on_event is None:
            for event in events:
                count += 1
                feed(event)
        else:
            for event in events:
                count += 1
                on_event(event)
                feed(event)
        self._count = count
        out = self._drain()
        if latency is not None:
            latency.emitted(len(out))
        return out

    def _drain(self) -> list:
        if self._stat is not None:
            if self._streaming_agg:
                return list(self._stat.drain_snapshots())
            return []
        sink = self._sink
        if not sink:
            return []
        out = list(sink)
        del sink[:]
        return out

    def finish(self) -> list:
        """End the document: flush buffers, capture stats, return tail."""
        if self.closed:
            return []
        self.closed = True
        latency = self.latency
        if latency is not None:
            latency.handle_entry()
        self._runtime.finish()
        out = self._drain()
        if self._stat is not None:
            out.append(self._stat.render())
        self._engine._capture_stats(self._runtime, self._count, self._stat)
        obs = self._engine.obs
        if obs is not None:
            obs.record_run(self._engine.name, self._engine.last_stats)
        if latency is not None:
            latency.emitted(len(out))
        return out


class FastPushHandle:
    """Push handle over a compiled :class:`~repro.xsq.fastpath.FastRuntime`.

    Consumes batched ``(kind, tag_id, payload, depth)`` tuples whose tag
    ids were interned through the owning plan's
    :class:`~repro.xsq.fastpath.TagTable` (exposed as :attr:`tags` so
    the parser layer can share it); plain events are converted on the
    fly by :meth:`feed_events`.
    """

    feed_mode = FEED_BATCH

    def __init__(self, engine, runtime, sink: list, stat=None,
                 streaming_agg: bool = False):
        self._engine = engine
        self._runtime = runtime
        self._sink = sink
        self._stat = stat
        self._streaming_agg = streaming_agg
        self.tags = engine.plan.tags
        self._count = 0
        self.latency = None
        self.closed = False

    @property
    def events_fed(self) -> int:
        return self._count

    def feed_batch(self, batch: list) -> list:
        """Feed one chunk of batched tuples; return determined results."""
        if self.closed:
            raise StreamError("push handle already finished")
        latency = self.latency
        if latency is not None:
            latency.handle_entry()
        self._count += len(batch)
        self._runtime.run_batch(batch)
        out = self._drain()
        if latency is not None:
            latency.emitted(len(out))
        return out

    def feed_events(self, events) -> list:
        intern = self.tags.intern
        batch = []
        append = batch.append
        for event in events:
            kind = event.kind
            if kind == "begin":
                append((BEGIN, intern(event.tag), event.attrs, event.depth))
            elif kind == "end":
                append((END, intern(event.tag), None, event.depth))
            else:
                append((TEXT, intern(event.tag), event.text, event.depth))
        return self.feed_batch(batch)

    _drain = EventPushHandle._drain

    def finish(self) -> list:
        if self.closed:
            return []
        self.closed = True
        latency = self.latency
        if latency is not None:
            latency.handle_entry()
        self._runtime.finish()
        out = self._drain()
        if self._stat is not None:
            out.append(self._stat.render())
        self._engine._capture_stats(self._runtime, self._count, self._stat)
        obs = self._engine.obs
        if obs is not None:
            obs.record_run(self._engine.name, self._engine.last_stats)
        if latency is not None:
            latency.emitted(len(out))
        return out


class MultiPushHandle:
    """Push handle over a :class:`~repro.xsq.multiquery.MultiQueryEngine`.

    Two result modes, mirroring the engine's pull modes:

    * ``merged=False`` — every feed returns ``(query_index, value)``
      pairs as they are determined (the ``iter_results`` shape);
      aggregate members surface their final value at ``finish()``.
    * ``merged=True`` — the union shape: feeds return nothing and
      ``finish()`` returns the document-order merged value list
      (document order across members is only known at end of stream).
    """

    feed_mode = FEED_EVENTS

    def __init__(self, engine, merged: bool = False):
        self._engine = engine
        self._merged = merged
        runtimes, sinks, stats, queues = engine._build_runtimes(
            shared_seq=merged)
        self._runtimes = runtimes
        self._sinks = sinks
        self._stats = stats
        self._queues = queues
        obs = engine.obs
        self._on_event = obs.event_hook() if obs is not None else None
        index = engine.index
        if index is not None:
            self._routes_get = index.routes.get
            self._default = index.default
            self._begins = [r.on_begin for r in runtimes]
            self._texts = [r.on_text for r in runtimes]
            self._ends = [r.on_end for r in runtimes]
        else:
            self._routes_get = None
        self._count = 0
        self.latency = None
        self.closed = False

    @property
    def events_fed(self) -> int:
        return self._count

    def feed_events(self, events) -> List[Tuple[int, object]]:
        """Feed events; return newly determined ``(index, value)`` pairs
        interleaved in stream order (empty under ``merged=True``)."""
        if self.closed:
            raise StreamError("push handle already finished")
        latency = self.latency
        if latency is not None:
            latency.handle_entry()
        out: list = []
        runtimes = self._runtimes
        sinks = self._sinks
        stats = self._stats
        on_event = self._on_event
        routes_get = self._routes_get
        merged = self._merged
        count = self._count
        if routes_get is None:
            all_targets = range(len(runtimes))
            for event in events:
                count += 1
                if on_event is not None:
                    on_event(event)
                for runtime in runtimes:
                    runtime.feed(event)
                if not merged:
                    for i in all_targets:
                        sink = sinks[i]
                        if sink and stats[i] is None:
                            out.extend((i, value) for value in sink)
                            del sink[:]
        else:
            default = self._default
            begins = self._begins
            texts = self._texts
            ends = self._ends
            for event in events:
                count += 1
                if on_event is not None:
                    on_event(event)
                targets = routes_get(event.tag, default)
                if targets:
                    kind = event.kind
                    table = (begins if kind == "begin"
                             else ends if kind == "end" else texts)
                    for i in targets:
                        table[i](event)
                    if not merged:
                        for i in targets:
                            sink = sinks[i]
                            if sink and stats[i] is None:
                                out.extend((i, value) for value in sink)
                                del sink[:]
        self._count = count
        if latency is not None:
            latency.emitted(len(out))
        return out

    def finish(self) -> list:
        """Flush every member; return the tail pairs (or, under
        ``merged=True``, the whole document-order union list)."""
        if self.closed:
            return []
        self.closed = True
        latency = self.latency
        if latency is not None:
            latency.handle_entry()
        count = self._count
        out: list = []
        for i, runtime in enumerate(self._runtimes):
            runtime.finish()
            stat = self._stats[i]
            if not self._merged:
                if stat is not None:
                    out.append((i, stat.render()))
                else:
                    sink = self._sinks[i]
                    out.extend((i, value) for value in sink)
                    del sink[:]
        run_stats = []
        for runtime, queue in zip(self._runtimes, self._queues):
            run_stats.append(RunStats(
                events=count,
                enqueued=queue.enqueued_total,
                cleared=queue.cleared_total,
                emitted=queue.emitted_total,
                peak_buffered_items=queue.peak_size,
                peak_instances=runtime.peak_instances,
                flushed=queue.flushed_total,
                uploaded=queue.uploaded_total))
        self._engine.last_stats = run_stats
        obs = self._engine.obs
        if obs is not None:
            for run in run_stats:
                obs.record_run(self._engine.name, run)
        if self._merged:
            tagged: List[Tuple[int, str]] = []
            for member_sink, queue in zip(self._sinks, self._queues):
                tagged.extend(zip(queue.emitted_seqs, member_sink))
            tagged.sort(key=lambda pair: pair[0])
            out = [value for _, value in tagged]
        if latency is not None:
            latency.emitted(len(out))
        return out


class NullPushHandle:
    """Push handle for the empty-rewritten query: accepts and discards."""

    feed_mode = FEED_NONE

    def __init__(self):
        self.closed = False
        self._count = 0
        self.latency = None

    @property
    def events_fed(self) -> int:
        return self._count

    def feed_events(self, events) -> list:
        self._count += sum(1 for _ in events)
        return []

    def finish(self) -> list:
        self.closed = True
        return []
