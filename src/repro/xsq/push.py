"""Document sessions: the one place a document is driven through a runtime.

The paper's HPDT consumes one SAX event at a time and never knows who
produced it (Sec 2.1, 3), so "pull" is just push with the caller's loop
inside the library.  A *session* (the ``*PushHandle`` classes below)
owns one document's runtime(s); every result mode is that session fed
by a different caller:

* ``run()`` feeds the whole source and finishes
  (:meth:`~_Session.feed_source`); results stream into the caller's
  sink, uncopied, and ``finish()`` returns the run's result;
* ``iter_results()`` feeds one event (interpreted runtimes) or one
  batch (kernels, query groups) at a time and yields what each feed
  determined
  (:meth:`~_Session.iter_source`);
* ``push()`` hands the session to the caller, who feeds events or
  batched tuples as they arrive; :class:`repro.api.PushSession` adds a
  resumable parser (:mod:`repro.streaming.push`) to accept raw chunks.

There is one session per runtime kind: :class:`EventPushHandle`
(interpreted single query, fed events), :class:`FastPushHandle`
(generated kernel, fed batches), :class:`MultiPushHandle` (a query
group, each member on the runtime the engine lowered it to — its
kernel or XSQ-F — fed batches; a union's group runs every member on
XSQ-F and returns the document-order union at ``finish()``) and
:class:`NullPushHandle` (the empty query).  Concatenating every
feed's results plus ``finish()`` equals ``run()``, for any split (the
chunk-split differential suite proves it byte-for-byte).
Aggregates surface their final value at ``finish()``; with
``streaming_agg=True`` each feed also returns the intermediate values
the paper's ``stat.update`` emits for unbounded streams.

Instrumentation is chosen once, when a session opens.  Without an
``obs`` bundle the loop calls the runtime's own bound methods; with one,
the event hook, occupancy histogram, per-event timer, fanout histogram
and the profiler's wrappers are composed around those methods, so every
mode records the same metrics.  ``finish()`` flushes the buffers, stores
``RunStats`` on the engine, records the run and closes the session;
feeding a closed session raises :class:`StreamError`, and ``finish()``
is idempotent.  Delivery latency is not a session concern: the serve
broker stamps its group session's results itself, after fan-out
(:class:`repro.obs.latency.LatencyRecorder`).
"""

from __future__ import annotations

import itertools
import time
from typing import List, Tuple

from repro.errors import StreamError
from repro.streaming.events import (BEGIN, END, BeginEvent, EndEvent,
                                     TextEvent, batch_events)
from repro.streaming.source import coerce_source
from repro.xpath.ast import AggregateOutput
from repro.xsq.aggregates import StatBuffer
from repro.xsq.buffers import OutputQueue
from repro.xsq.engine import RunStats
from repro.xsq.fastpath import FastRuntime
from repro.xsq.matcher import MatcherRuntime

#: Feed representations a session accepts (repro.api.PushSession reads
#: this to pick the matching resumable parser).
FEED_EVENTS = "events"
FEED_BATCH = "batch"
FEED_NONE = "none"

_CLOSED = "push handle already finished"


def _observed_feed(obs, name: str, feed, queue):
    """``feed`` wrapped in the bundle's per-event instruments: the event
    hook, an occupancy sample after each event and, with
    ``per_event_timing``, a dispatch-latency histogram."""
    on_event = obs.event_hook()
    occupancy = obs.metrics.histogram(
        "repro_buffer_occupancy_items",
        "output-queue occupancy sampled after each event",
        engine=name).observe
    if obs.per_event_timing:
        from repro.obs.metrics import LATENCY_BUCKETS
        dispatch = obs.metrics.histogram(
            "repro_event_dispatch_seconds", "per-event dispatch latency",
            buckets=LATENCY_BUCKETS, engine=name).observe
        clock = time.perf_counter
        untimed = feed

        def feed(event):
            t0 = clock()
            untimed(event)
            dispatch(clock() - t0)

    def observed(event):
        if on_event is not None:
            on_event(event)
        feed(event)
        occupancy(len(queue))

    return observed


class _Session:
    """What every session shares: the engine, the event count and the
    closed-handle contract."""

    feed_mode = FEED_NONE

    def __init__(self, engine):
        self._engine = engine
        self._count = 0
        self.closed = False

    @property
    def events_fed(self) -> int:
        return self._count

    def feed_source(self, source, **span_attrs):
        """``run()`` for every engine: feed all of ``source``, finish.

        With an ``obs`` bundle the pass sits inside ``run``/``stream``
        spans and the events-per-second gauge is set from the stream
        span.  Spans stay around ``run()`` only: a push session's span
        would stay open across the caller's ``feed`` calls, and
        interleaved sessions would then close spans out of the
        tracer's nesting order.
        """
        engine = self._engine
        obs = engine.obs
        if obs is None:
            return self._feed_all(source)
        with obs.span("run", engine=engine.name, **span_attrs):
            with obs.span("stream", engine=engine.name) as stream:
                result = self._feed_all(source)
        obs.record_rate(engine.name, self._count, stream.duration)
        return result

    def iter_source(self, source):
        """``iter_results()`` for every engine: yield as results
        determine.  Interpreted sessions are fed one event at a time,
        kernel and group sessions one batch at a time, so unblocked
        results surface mid-document."""
        feed, units = self._units(source, per_event=True)
        for unit in units:
            yield from feed(unit)
        yield from self.finish()

    def _feed_all(self, source):
        feed, units = self._units(source, per_event=False)
        for unit in units:
            feed(unit)
        return self.finish()

    def _units(self, source, per_event: bool):
        """``(feed, units)``: ``source`` cut into what this session
        consumes.  Kernel sessions take the parser's tuple batches;
        event sessions take the whole event stream as one unit, or one
        event per unit.  The empty query's session never touches the
        source."""
        mode = self.feed_mode
        if mode == FEED_NONE:
            return None, ()
        coerced = coerce_source(source)
        if mode == FEED_BATCH:
            return self.feed_batch, coerced.batches(self.tags)
        events = coerced.events()
        if per_event:
            return self.feed_events, ((event,) for event in events)
        return self.feed_events, (events,)

    def feed_events(self, events) -> list:
        """Feed plain events to a batch-fed session, converted (and, on
        a closed table, projected) by
        :func:`~repro.streaming.events.batch_events`; event-fed
        sessions override this."""
        if self.closed:
            raise StreamError(_CLOSED)
        out: list = []
        for batch in batch_events(events, self.tags):
            out.extend(self.feed_batch(batch))
        return out

    def finish(self) -> list:
        """End the document: flush buffers, store stats, return the tail."""
        if self.closed:
            return []
        self.closed = True
        return self._finish()

    def _finish(self) -> list:
        return []


class _QuerySession(_Session):
    """One query's runtime; ``drain=False`` is ``run()``'s session.

    A draining session returns each feed's newly determined results.  A
    non-draining one leaves them in the caller's ``sink`` (no per-result
    copy) and its ``finish()`` returns ``run()``'s result: the sink, or
    the aggregate's single final value.
    """

    def __init__(self, engine, runtime, sink: list, stat=None,
                 streaming_agg: bool = False, drain: bool = True):
        super().__init__(engine)
        self._runtime = runtime
        self._sink = sink
        self._stat = stat
        self._streaming_agg = streaming_agg
        self._drains = drain

    def _drain(self) -> list:
        if not self._drains:
            return []
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

    def _finish(self) -> list:
        runtime = self._runtime
        runtime.finish()
        engine = self._engine
        engine.last_stats = RunStats.of(runtime, self._count)
        engine.last_stat_buffer = self._stat
        if engine.obs is not None:
            engine.obs.record_run(engine.name, engine.last_stats)
        stat = self._stat
        if not self._drains:
            return [stat.render()] if stat is not None else self._sink
        out = self._drain()
        if stat is not None:
            out.append(stat.render())
        return out


class EventPushHandle(_QuerySession):
    """Session over an interpreted runtime (XSQ-F or XSQ-NC), fed events.

    ``runtime`` is any object with ``feed(event)`` / ``finish()`` and a
    ``queue`` (:class:`~repro.xsq.buffers.OutputQueue`) draining into
    ``sink`` — both interpreted runtimes qualify unchanged.
    """

    feed_mode = FEED_EVENTS

    def __init__(self, engine, runtime, sink: list, stat=None,
                 streaming_agg: bool = False, drain: bool = True):
        super().__init__(engine, runtime, sink, stat, streaming_agg, drain)
        feed = runtime.feed
        obs = engine.obs
        if obs is not None:
            feed = _observed_feed(obs, engine.name, feed, runtime.queue)
            if obs.profiler is not None:
                feed = obs.profiler.timed_feed(engine.name, runtime, feed)
        self._feed = feed

    def feed_events(self, events) -> list:
        """Feed a batch of events; return the results they determined."""
        if self.closed:
            raise StreamError(_CLOSED)
        count = self._count
        feed = self._feed
        for event in events:
            count += 1
            feed(event)
        self._count = count
        return self._drain()


class FastPushHandle(_QuerySession):
    """Session over a compiled :class:`~repro.xsq.fastpath.FastRuntime`.

    Consumes batched ``(kind, tag_id, payload, depth)`` tuples whose tag
    ids were interned through the owning plan's
    :class:`~repro.xsq.fastpath.TagTable` (exposed as :attr:`tags` so
    the parser layer can share it); plain events are converted on the
    fly by :meth:`feed_events`.  A
    :class:`~repro.streaming.events.Batch` from a closed table's parser
    also carries the events it dropped, which count toward
    :attr:`events_fed` and ``RunStats.events`` like the tuples do.
    """

    feed_mode = FEED_BATCH

    def __init__(self, engine, runtime, sink: list, stat=None,
                 streaming_agg: bool = False, drain: bool = True):
        super().__init__(engine, runtime, sink, stat, streaming_agg, drain)
        self.tags = engine.plan.tags
        obs = engine.obs
        if obs is not None and obs.profiler is not None:
            obs.profiler.timed_kernel(engine.name, runtime, self.tags.names)
        self._run_batch = runtime.run_batch

    def feed_batch(self, batch: list) -> list:
        """Feed one chunk of batched tuples; return determined results."""
        if self.closed:
            raise StreamError(_CLOSED)
        self._count += len(batch) + getattr(batch, "dropped", 0)
        self._run_batch(batch)
        return self._drain()

def _event_of(event, names):
    """The :class:`~repro.streaming.events.Event` for one batched
    ``(kind, tag_id, payload, depth)`` tuple."""
    kind = event[0]
    if kind == BEGIN:
        return BeginEvent(names[event[1]], event[2], event[3])
    if kind == END:
        return EndEvent(names[event[1]], event[3])
    return TextEvent(names[event[1]], event[2], event[3])


class MultiPushHandle(_Session):
    """The query group: every member of a
    :class:`~repro.xsq.multiquery.MultiQueryEngine` driven from one
    parse.

    The engine's lowering (``MultiQueryEngine._fast``) says which
    runtime each member runs.  Members that lowered to a
    :class:`~repro.xsq.fastpath.FastPlan` (against the group's one
    shared :class:`~repro.xsq.fastpath.TagTable`) run their generated
    kernels; the rest run XSQ-F's matcher.  Each batched tuple is
    routed once by tag id, appended to the sub-batch of every kernel
    member that must see it, and turned into one
    :class:`~repro.streaming.events.Event` shared by the matchers that
    must see it; the kernels then run their sub-batches.  Each member
    sees the begin/end-balanced subsequence of the stream its dispatch
    route gives it, so its results and ``RunStats`` do not depend on
    how the stream is cut.

    Cutting does decide the order *between* members.  Whole batches
    give each member's results in document order, grouped by member:
    ``run()`` and the serve broker open such a session
    (``ordered=False``).  An ordered session binds :meth:`feed_batch`
    to :meth:`_feed_ordered`, which hands each tuple to its route's
    members alone and drains their sinks before the next tuple, so
    feeds return pairs in stream order across members: ``push()``,
    ``iter_results()``, the merged union and any ``obs`` session (whose
    event hooks, profiler mark and fanout histogram run before each
    tuple) are ordered.

    Three result shapes:

    * default: every feed returns ``(query_index, value)`` pairs;
      aggregate members surface their final value at ``finish()``;
    * a :class:`repro.api.UnionEngine` (``engine.merged``): the union.
      Every member runs XSQ-F, feeds return nothing, and ``finish()``
      returns the document-order union, through a sequence counter
      shared by every member's queue.  A node that several members
      select with the same output is returned once;
    * ``drain=False``: ``run()``'s session.  Results stay in ``sinks``
      and ``finish()`` returns the per-query result lists.

    When no member is greedy and no ``obs`` bundle is attached, the
    group's table is closed and the parser builds tuples only for tags
    some member names; every batch's ``dropped`` count still joins the
    event count every member's ``RunStats`` reports.
    """

    feed_mode = FEED_BATCH

    def __init__(self, engine, sinks=None, drain: bool = True,
                 ordered: bool = True):
        queries = engine.queries
        merged = engine.merged
        super().__init__(engine)
        if sinks is None:
            sinks = [[] for _ in queries]
        elif len(sinks) != len(queries):
            raise ValueError("expected %d sinks, got %d"
                             % (len(queries), len(sinks)))
        self._sinks = sinks
        self._drains = drain = drain and not merged
        self._merged = merged
        self._stats = [StatBuffer(query.output.name)
                       if isinstance(query.output, AggregateOutput)
                       else None for query in queries]
        tags, plans, routes, default = engine._fast
        self.tags = tags
        self._names = tags.names
        self._routes_get = routes.get
        self._default = default
        obs = engine.obs
        trace = obs.events if obs is not None else None
        accounting = obs.accounting if obs is not None else None
        labels = [query.text for query in queries]
        if accounting is not None:
            # Duplicate member queries must not share a ledger (each
            # queue numbers its items independently).
            seen: dict = {}
            for i, text in enumerate(labels):
                n = seen.get(text, 0)
                seen[text] = n + 1
                if n:
                    labels[i] = "%s #%d" % (text, n + 1)
        seq_source = None
        if merged:
            # One counter across members gives document order; the
            # stream position each seq was issued at tells the tail
            # which items are the same node.
            counter = itertools.count()
            positions = self._positions = []

            def seq_source():
                positions.append(self._count)
                return next(counter)

        self._runtimes = runtimes = []
        for plan, hpdt, sink, stat, label in zip(
                plans, engine.hpdts, sinks, self._stats, labels):
            if plan is not None:
                runtimes.append(FastRuntime(plan, hpdt, sink, stat=stat))
                continue
            queue = OutputQueue(
                sink, trace=trace, seq_source=seq_source, track_seqs=merged,
                account=(accounting.account(label, engine=engine.name)
                         if accounting is not None else None))
            runtimes.append(MatcherRuntime(hpdt, sink, stat=stat,
                                           queue=queue))
        # Per-kind handler tables, indexed by member; routes only ever
        # send kernel members tuples, so their slots stay None.
        matchers = [runtime if plan is None else None
                    for runtime, plan in zip(runtimes, plans)]
        tables = ([m.on_begin if m else None for m in matchers],
                  [m.on_text if m else None for m in matchers],
                  [m.on_end if m else None for m in matchers])
        self._observe = None
        if obs is not None:
            mark = None
            if obs.profiler is not None:
                # Times the matchers' handlers and wraps each kernel
                # member's run_batch in place, so it runs before
                # anything below binds run_batch.
                mark, tables = obs.profiler.timed_dispatch(
                    engine.name, runtimes, [query.text for query in queries],
                    tables)
            self._observe = self._observer(obs, mark)
        self._begins, self._texts, self._ends = tables
        self._subs: List[list] = [[] for _ in runtimes]
        self._kernels = [(runtime.run_batch, self._subs[i])
                         for i, (runtime, plan)
                         in enumerate(zip(runtimes, plans))
                         if plan is not None]
        self._drained = [(i, sink) for i, (sink, stat)
                         in enumerate(zip(sinks, self._stats))
                         if stat is None] if drain else []
        if ordered or merged or obs is not None:
            # Per route, what one tuple touches: its kernel members'
            # run_batch, its matchers, and the sinks to drain after it
            # (member order, so ties come out in member order).
            self._tables = tables
            drained = dict(self._drained)

            def touch(route):
                kernels, matchers = route
                return (tuple(runtimes[i].run_batch for i in kernels),
                        matchers,
                        tuple((i, drained[i]) for i in sorted(kernels
                                                              + matchers)
                              if i in drained))

            self._touch_get = {tid: touch(route)
                               for tid, route in routes.items()}.get
            self._touch_default = touch(default)
            self.feed_batch = self._feed_ordered

    def _observer(self, obs, mark):
        """The per-tuple instruments of an ``obs`` session: the
        profiler's arrival ``mark`` (or None) and the event hook, fed
        the tuple's Event, and the fanout histogram."""
        from repro.obs.metrics import FANOUT_BUCKETS
        hooks = [hook for hook in (mark, obs.event_hook())
                 if hook is not None]
        fanout = obs.metrics.histogram(
            "repro_dispatch_fanout_queries",
            "runtimes touched per stream event under shared dispatch",
            buckets=FANOUT_BUCKETS, engine=self._engine.name).observe
        names = self._names
        routes_get = self._routes_get
        default = self._default

        def observe(event):
            if hooks:
                shared = _event_of(event, names)
                for hook in hooks:
                    hook(shared)
            kernels, matchers = routes_get(event[1], default)
            fanout(len(kernels) + len(matchers))

        return observe

    def feed_batch(self, batch: list) -> List[Tuple[int, object]]:
        """Feed one chunk of batched tuples; return the ``(index,
        value)`` pairs it determined (empty when not draining).

        This whole-batch loop groups the pairs by member; an ordered
        session replaces it with :meth:`_feed_ordered`.  A text tuple
        carries its enclosing element's tag id and an end tuple repeats
        its begin's, so one route lookup serves all three kinds and
        every member sees a begin/end-balanced subsequence.
        """
        if self.closed:
            raise StreamError(_CLOSED)
        self._count += len(batch) + getattr(batch, "dropped", 0)
        routes_get = self._routes_get
        default = self._default
        subs = self._subs
        names = self._names
        begins = self._begins
        texts = self._texts
        ends = self._ends
        for event in batch:
            kernels, matchers = routes_get(event[1], default)
            for i in kernels:
                subs[i].append(event)
            if matchers:
                kind = event[0]
                if kind == BEGIN:
                    shared = BeginEvent(names[event[1]], event[2], event[3])
                    table = begins
                elif kind == END:
                    shared = EndEvent(names[event[1]], event[3])
                    table = ends
                else:
                    shared = TextEvent(names[event[1]], event[2], event[3])
                    table = texts
                for i in matchers:
                    table[i](shared)
        for run_batch, sub in self._kernels:
            if sub:
                run_batch(sub)
                del sub[:]
        out: list = []
        for i, sink in self._drained:
            if sink:
                out.extend((i, value) for value in sink)
                del sink[:]
        return out

    def _feed_ordered(self, batch: list) -> List[Tuple[int, object]]:
        """:meth:`feed_batch` one tuple at a time: each tuple runs only
        its route's kernel members and matchers, and their pairs come
        out before the next tuple's, so pairs interleave across members
        in stream order (ties in member order).  The event count
        advances before each tuple's handlers run: the merged union's
        node-set dedupe keys on it."""
        if self.closed:
            raise StreamError(_CLOSED)
        count = self._count + getattr(batch, "dropped", 0)
        touch_get = self._touch_get
        default = self._touch_default
        names = self._names
        tables = self._tables
        observe = self._observe
        out: list = []
        for event in batch:
            count += 1
            self._count = count
            if observe is not None:
                observe(event)
            runs, matchers, drained = touch_get(event[1], default)
            for run_batch in runs:
                run_batch((event,))
            if matchers:
                table = tables[event[0]]
                shared = _event_of(event, names)
                for i in matchers:
                    table[i](shared)
            for i, sink in drained:
                if sink:
                    out.extend((i, value) for value in sink)
                    del sink[:]
        self._count = count
        return out

    def _finish(self) -> list:
        engine = self._engine
        count = self._count
        for runtime in self._runtimes:
            runtime.finish()
        # ``events`` is the *global* stream length for every member: all
        # queries share the single pass even when the dispatch index
        # withheld most events from their runtimes.
        engine.last_stats = [RunStats.of(runtime, count)
                             for runtime in self._runtimes]
        if engine.obs is not None:
            for run in engine.last_stats:
                engine.obs.record_run(engine.name, run)
        if self._merged:
            return self._union()
        if not self._drains:
            return [[stat.render()] if stat is not None else sink
                    for sink, stat in zip(self._sinks, self._stats)]
        out: list = []
        for i, (sink, stat) in enumerate(zip(self._sinks, self._stats)):
            if stat is not None:
                out.append((i, stat.render()))
            else:
                out.extend((i, value) for value in sink)
                del sink[:]
        return out

    def _union(self) -> list:
        """The merged union in document order (item seq order).  XPath's
        ``|`` is a node-set union: an item issued at the same stream
        position with the same output spec as one already kept is the
        same node selected by another member, and is dropped."""
        tagged: List[Tuple[int, object, str]] = []
        for runtime, sink in zip(self._runtimes, self._sinks):
            output = runtime.output
            tagged.extend((seq, output, value) for seq, value
                          in zip(runtime.queue.emitted_seqs, sink))
        tagged.sort(key=lambda item: item[0])
        positions = self._positions
        kept = set()
        out = []
        for seq, output, value in tagged:
            key = (positions[seq], output)
            if key not in kept:
                kept.add(key)
                out.append(value)
        return out


class NullPushHandle(_Session):
    """Session for a query proven empty: counts and discards events;
    ``finish()`` returns ``tail`` (an aggregate's value over no
    matches, e.g. ``count()`` is 0)."""

    def __init__(self, engine, tail=()):
        super().__init__(engine)
        self._tail = list(tail)

    def _finish(self) -> list:
        return list(self._tail)

    def feed_events(self, events) -> list:
        if self.closed:
            raise StreamError(_CLOSED)
        self._count += sum(1 for _ in events)
        return []
