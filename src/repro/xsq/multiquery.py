"""Grouped execution of many XSQ queries in one pass over a stream.

Section 5 of the paper: "the HPDT used by XSQ has a simple and regular
structure, so that multiple HPDTs can be grouped using methods
suggested by [YFilter]".  This module is that grouping, in two layers:

* **one parse** — a single event pass drives every compiled HPDT, so
  tokenization (the dominant cost for streaming workloads) is paid once
  no matter how many queries are loaded;
* **one dispatch** — the BPDT transitions of all registered queries are
  factored into a shared tag-keyed :class:`~repro.xsq.dispatch.DispatchIndex`,
  so each ``B``/``T``/``E`` event is routed only to the machines whose
  transitions can actually fire on it.  Per-event work is then bounded
  by the fanout of the event's tag, not by the number of registered
  queries — the YFilter shared-NFA property.

Each query still gets its own buffers, predicate instances, depth
vectors and document-ordered, exactly-once output; only the *routing*
is shared.  ``shared_dispatch=False`` recovers the dense loop (every
event to every runtime) for A/B measurement — the bench harness
compares both against N independent engines.

Three result modes:

* :meth:`MultiQueryEngine.run` — per-query result lists (the
  subscription/dissemination shape);
* :meth:`MultiQueryEngine.iter_results` — incremental
  ``(query_index, value)`` pairs as results are determined;
* merged (via :func:`repro.compile` on a union query, or the
  schema-aware optimizer) — one union result list in global document
  order.  The merged mode stamps every buffered item from a *shared*
  sequence counter, so document order across the member queries is
  just item order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import FastPathUnsupportedError, UnsupportedFeatureError
from repro.streaming.events import Event
from repro.xpath.ast import AggregateOutput, Query
from repro.xsq.aggregates import StatBuffer
from repro.xsq.buffers import OutputQueue
from repro.xsq.compile_cache import compile_hpdt
from repro.xsq.dispatch import DispatchIndex
from repro.xsq.engine import RunStats
from repro.xsq.fastpath import FastRuntime, TagTable, compile_fastplan
from repro.xsq.hpdt import Hpdt
from repro.xsq.matcher import MatcherRuntime


class MultiQueryEngine:
    """One pass, many queries, shared event dispatch.

    ``obs`` accepts an :class:`repro.obs.Observability` bundle (spans,
    run stats, dispatch-index gauges and per-event fanout histograms).
    ``cache`` is forwarded to :func:`repro.xsq.compile_cache.compile_hpdt`
    (``None`` = process default, ``False`` = compile fresh).
    ``shared_dispatch=False`` disables the tag index and feeds every
    event to every runtime — the pre-index behaviour, kept as the
    measured baseline.

    >>> engine = MultiQueryEngine(["/pub/book/name/text()",
    ...                            "/pub/year/text()"])
    >>> engine.run("<pub><book><name>N</name></book><year>2002</year></pub>")
    [['N'], ['2002']]
    """

    name = "multiquery"

    def __init__(self, queries: Sequence[Union[str, Query]], obs=None, *,
                 shared_dispatch: bool = True, cache=None):
        if not queries:
            raise ValueError("MultiQueryEngine needs at least one query")
        self.obs = obs
        if obs is not None:
            with obs.span("compile", engine=self.name, queries=len(queries)):
                with obs.span("hpdt-compile"):
                    self.hpdts: List[Hpdt] = [
                        compile_hpdt(q, cache=cache, obs=obs)
                        for q in queries]
        else:
            self.hpdts = [compile_hpdt(q, cache=cache) for q in queries]
        self.queries: List[Query] = [h.query for h in self.hpdts]
        self.index: Optional[DispatchIndex] = (
            DispatchIndex(self.hpdts) if shared_dispatch else None)
        # Whole-group fast path: when every member lowers to a FastPlan
        # against one shared TagTable (and nothing demands per-event
        # instrumentation), run() partitions each parser batch through
        # the id-keyed routes and drives compiled FastRuntimes instead
        # of the interpreted matchers.
        self._fast = self._try_fastplans()
        self.last_stats: Optional[List[RunStats]] = None
        if obs is not None and self.index is not None:
            shape = self.index.stats()
            metrics = obs.metrics
            metrics.gauge(
                "repro_dispatch_tag_buckets",
                "distinct element tags in the shared dispatch index",
                engine=self.name).set(shape["buckets"])
            metrics.gauge(
                "repro_dispatch_greedy_queries",
                "queries routed every event (wildcards, element output)",
                engine=self.name).set(shape["greedy"])
            metrics.gauge(
                "repro_dispatch_max_bucket_queries",
                "largest per-tag fanout in the shared dispatch index",
                engine=self.name).set(shape["max_bucket"])

    @property
    def query_count(self) -> int:
        return len(self.queries)

    @property
    def stats(self) -> Optional[RunStats]:
        """Aggregate stats from the most recent run (uniform ``.stats``).

        Per-query breakdowns stay available on :attr:`last_stats`.
        """
        if self.last_stats is None:
            return None
        return RunStats.merged(self.last_stats)

    # -- execution ----------------------------------------------------------

    def _as_events(self, source) -> Iterable[Event]:
        from repro.streaming.source import coerce_source
        return coerce_source(source).events()

    def _as_batches(self, source, tags: TagTable):
        from repro.streaming.source import coerce_source
        return coerce_source(source).batches(tags)

    def _try_fastplans(self):
        """Lower every member for the grouped fast path, or None.

        All members must share one :class:`TagTable` so the dispatch
        index's id routes agree with every plan's transition-row keys;
        a single unsupported member (closure, not()/or(), path
        predicate) keeps the whole group interpreted — mixing runtimes
        would reorder nothing but complicate the invariants for no
        measured win on real workloads, where grouped queries are
        structurally alike.  Per-member outcomes (fallback slugs,
        kernel notes) are recorded on :attr:`member_fallbacks` /
        :attr:`member_kernel_notes` either way, so ``explain()`` can
        show *which* member kept the group interpreted.
        """
        self.member_fallbacks: List[Optional[str]] = \
            [None] * len(self.hpdts)
        self.member_kernel_notes: List[Optional[str]] = \
            [None] * len(self.hpdts)
        self.fast_group_note: Optional[str] = None
        if self.obs is not None:
            self.fast_group_note = ("per-event observability needs the "
                                    "interpreted runtimes")
            return None
        if self.index is None:
            self.fast_group_note = ("shared_dispatch=False pins the "
                                    "interpreted dense loop")
            return None
        tags = TagTable()
        plans = []
        supported = True
        for i, hpdt in enumerate(self.hpdts):
            try:
                plans.append(compile_fastplan(hpdt, tags))
            except FastPathUnsupportedError as exc:
                self.member_fallbacks[i] = exc.reason
                supported = False
        if not supported:
            bad = sum(1 for slug in self.member_fallbacks
                      if slug is not None)
            self.fast_group_note = (
                "%d member(s) outside the fast-path class keep the "
                "group interpreted" % bad)
            return None
        from repro.xsq.codegen import compile_kernel
        self.member_kernel_notes = [compile_kernel(plan)[1]
                                    for plan in plans]
        routes, default = self.index.id_routes(tags)
        return tags, plans, routes, default

    def member_selection_notes(self) -> List[str]:
        """One engine-selection line per member query, for explain()."""
        notes = []
        for i, query in enumerate(self.queries):
            if self._fast is not None:
                kernel_note = self.member_kernel_notes[i]
                notes.append("member %d: %s — grouped fast pump (%s)"
                             % (i, query.text, kernel_note))
            elif self.member_fallbacks[i] is not None:
                notes.append(
                    "member %d: %s — fast path not selected: %s"
                    % (i, query.text, self.member_fallbacks[i]))
            else:
                notes.append(
                    "member %d: %s — fast-capable; interpreted because "
                    "%s" % (i, query.text, self.fast_group_note))
        return notes

    def _run_fast(self, source, sinks):
        """run() on compiled runtimes: batch, partition by tag id, drive.

        Events are partitioned into per-runtime sub-batches with one
        int-keyed route lookup each, then each runtime runs its
        sub-batch in one kernel call — the per-event Python dispatch of
        ``_pump_dispatch`` collapses into ``len(batch)`` appends plus a
        handful of ``run_batch`` calls per chunk.
        """
        tags, plans, routes, default = self._fast
        if sinks is None:
            sinks = [[] for _ in self.queries]
        elif len(sinks) != len(self.queries):
            raise ValueError("expected %d sinks, got %d"
                             % (len(self.queries), len(sinks)))
        runtimes: List[FastRuntime] = []
        stats: List[Optional[StatBuffer]] = []
        for plan, hpdt, query, sink in zip(plans, self.hpdts, self.queries,
                                           sinks):
            stat = (StatBuffer(query.output.name)
                    if isinstance(query.output, AggregateOutput) else None)
            runtimes.append(FastRuntime(plan, hpdt, sink, stat=stat))
            stats.append(stat)
        routes_get = routes.get
        subs: List[list] = [[] for _ in runtimes]
        count = 0
        for batch in self._as_batches(source, tags):
            count += len(batch)
            for event in batch:
                for i in routes_get(event[1], default):
                    subs[i].append(event)
            for i, sub in enumerate(subs):
                if sub:
                    runtimes[i].run_batch(sub)
                    del sub[:]
        run_stats = []
        for runtime in runtimes:
            runtime.finish()
            queue = runtime.queue
            run_stats.append(RunStats(
                events=count,
                enqueued=queue.enqueued_total,
                cleared=queue.cleared_total,
                emitted=queue.emitted_total,
                peak_buffered_items=queue.peak_size,
                peak_instances=runtime.peak_instances,
                flushed=queue.flushed_total,
                uploaded=queue.uploaded_total))
        self.last_stats = run_stats
        results = []
        for sink, stat in zip(sinks, stats):
            results.append([stat.render()] if stat is not None else sink)
        return results

    def _build_runtimes(self, shared_seq: bool, sinks=None):
        counter = itertools.count() if shared_seq else None
        if sinks is None:
            sinks = [[] for _ in self.queries]
        elif len(sinks) != len(self.queries):
            raise ValueError("expected %d sinks, got %d"
                             % (len(self.queries), len(sinks)))
        runtimes = []
        stats: List[Optional[StatBuffer]] = []
        queues: List[OutputQueue] = []
        accounting = (self.obs.accounting if self.obs is not None else None)
        account_labels: List[str] = []
        if accounting is not None:
            # Duplicate member queries must not share a ledger (each
            # queue numbers its items independently).
            seen: dict = {}
            for query in self.queries:
                n = seen.get(query.text, 0)
                seen[query.text] = n + 1
                account_labels.append(
                    query.text if n == 0
                    else "%s #%d" % (query.text, n + 1))
        for index, (query, hpdt, sink) in enumerate(
                zip(self.queries, self.hpdts, sinks)):
            stat = (StatBuffer(query.output.name)
                    if isinstance(query.output, AggregateOutput) else None)
            queue = OutputQueue(
                sink,
                trace=(self.obs.events if self.obs is not None else None),
                seq_source=(counter.__next__ if counter is not None
                            else None),
                track_seqs=shared_seq,
                account=(accounting.account(account_labels[index],
                                            engine=self.name)
                         if accounting is not None else None))
            runtimes.append(MatcherRuntime(hpdt, sink, stat=stat,
                                           queue=queue))
            stats.append(stat)
            queues.append(queue)
        return runtimes, sinks, stats, queues

    def _pump(self, events, runtimes) -> int:
        """Dense loop: every event to every runtime (the baseline)."""
        count = 0
        feeds = [runtime.feed for runtime in runtimes]
        for event in events:
            count += 1
            for feed in feeds:
                feed(event)
        return count

    def _pump_dispatch(self, events, runtimes) -> int:
        """Sparse loop: route each event through the shared tag index.

        ``TextEvent.tag`` is the *enclosing* element's tag and an end
        event repeats its begin's tag, so one ``routes[tag]`` lookup
        serves all three kinds and every runtime sees a begin/end-
        balanced event subsequence (its sparse stack stays consistent).
        """
        count = 0
        routes_get = self.index.routes.get
        default = self.index.default
        begins = [runtime.on_begin for runtime in runtimes]
        texts = [runtime.on_text for runtime in runtimes]
        ends = [runtime.on_end for runtime in runtimes]
        for event in events:
            count += 1
            targets = routes_get(event.tag, default)
            if targets:
                kind = event.kind
                table = (begins if kind == "begin"
                         else ends if kind == "end" else texts)
                for i in targets:
                    table[i](event)
        return count

    def _pump_observed(self, events, runtimes, obs) -> int:
        """Instrumented variants of the two loops above."""
        count = 0
        on_event = obs.event_hook()
        if self.index is None:
            feeds = [runtime.feed for runtime in runtimes]
            for event in events:
                count += 1
                if on_event is not None:
                    on_event(event)
                for feed in feeds:
                    feed(event)
            return count
        from repro.obs.metrics import FANOUT_BUCKETS
        fanout = obs.metrics.histogram(
            "repro_dispatch_fanout_queries",
            "runtimes touched per stream event under shared dispatch",
            buckets=FANOUT_BUCKETS, engine=self.name)
        routes_get = self.index.routes.get
        default = self.index.default
        begins = [runtime.on_begin for runtime in runtimes]
        texts = [runtime.on_text for runtime in runtimes]
        ends = [runtime.on_end for runtime in runtimes]
        for event in events:
            count += 1
            if on_event is not None:
                on_event(event)
            targets = routes_get(event.tag, default)
            fanout.observe(len(targets))
            if targets:
                kind = event.kind
                table = (begins if kind == "begin"
                         else ends if kind == "end" else texts)
                for i in targets:
                    table[i](event)
        return count

    def _drive(self, source, shared_seq: bool, sinks=None):
        obs = self.obs
        runtimes, sinks, stats, queues = self._build_runtimes(shared_seq,
                                                              sinks)
        events = self._as_events(source)
        if obs is None:
            if self.index is not None:
                count = self._pump_dispatch(events, runtimes)
            else:
                count = self._pump(events, runtimes)
            stream_span = None
        else:
            with obs.span("stream", engine=self.name,
                          queries=len(self.queries)) as stream_span:
                profiler = obs.profiler
                if profiler is not None:
                    # Profiled grouped pump: same routing as
                    # _pump_dispatch, plus per-query attribution.
                    labels = [query.text for query in self.queries]
                    routes_get = (self.index.routes.get
                                  if self.index is not None else None)
                    default = (self.index.default
                               if self.index is not None else None)
                    count = profiler.pump_dispatch(
                        self.name, events, runtimes, labels,
                        routes_get, default, on_event=obs.event_hook())
                else:
                    count = self._pump_observed(events, runtimes, obs)
        run_stats = []
        profiler = obs.profiler if obs is not None else None
        for runtime, queue in zip(runtimes, queues):
            if profiler is not None:
                profiler.timed_finish(runtime)
            else:
                runtime.finish()
            # ``events`` is the *global* stream length for every member:
            # all queries share the single pass even when the dispatch
            # index withheld most events from their runtimes.
            run_stats.append(RunStats(
                events=count,
                enqueued=queue.enqueued_total,
                cleared=queue.cleared_total,
                emitted=queue.emitted_total,
                peak_buffered_items=queue.peak_size,
                peak_instances=runtime.peak_instances,
                flushed=queue.flushed_total,
                uploaded=queue.uploaded_total))
        self.last_stats = run_stats
        if obs is not None:
            for run in run_stats:
                obs.record_run(self.name, run,
                               seconds=stream_span.duration)
        return sinks, stats, queues

    def run(self, source, sinks=None) -> List[List[str]]:
        """Per-query results from a single pass over ``source``.

        ``sinks`` optionally supplies one collector per query (anything
        with ``append``), mirroring the single-query engines' ``sink=``;
        results stream into them during the pass.
        """
        if self._fast is not None:
            return self._run_fast(source, sinks)
        sinks, stats, _ = self._drive(source, shared_seq=False,
                                      sinks=sinks)[:3]
        results = []
        for sink, stat in zip(sinks, stats):
            results.append([stat.render()] if stat is not None else sink)
        return results

    def iter_results(self, source) -> Iterator[Tuple[int, object]]:
        """Yield ``(query_index, value)`` pairs as they are determined.

        Values for different queries interleave in stream order.
        Aggregate members yield their single final value after the
        stream ends (an aggregate is undetermined until then).
        """
        runtimes, sinks, stats, queues = self._build_runtimes(False)
        events = self._as_events(source)
        obs = self.obs
        on_event = obs.event_hook() if obs is not None else None
        index = self.index
        if index is not None:
            routes_get = index.routes.get
            default = index.default
            begins = [runtime.on_begin for runtime in runtimes]
            texts = [runtime.on_text for runtime in runtimes]
            ends = [runtime.on_end for runtime in runtimes]
        count = 0
        for event in events:
            count += 1
            if on_event is not None:
                on_event(event)
            if index is None:
                targets = range(len(runtimes))
                for runtime in runtimes:
                    runtime.feed(event)
            else:
                targets = routes_get(event.tag, default)
                if targets:
                    kind = event.kind
                    table = (begins if kind == "begin"
                             else ends if kind == "end" else texts)
                    for i in targets:
                        table[i](event)
            for i in targets:
                sink = sinks[i]
                if sink and stats[i] is None:
                    for value in sink:
                        yield (i, value)
                    # Drain (don't retain) so unbounded streams run in
                    # bounded memory.
                    sink.clear()
        for i, runtime in enumerate(runtimes):
            runtime.finish()
            stat = stats[i]
            if stat is not None:
                yield (i, stat.render())
            else:
                for value in sinks[i]:
                    yield (i, value)
                sinks[i].clear()
        run_stats = []
        for runtime, queue in zip(runtimes, queues):
            run_stats.append(RunStats(
                events=count,
                enqueued=queue.enqueued_total,
                cleared=queue.cleared_total,
                emitted=queue.emitted_total,
                peak_buffered_items=queue.peak_size,
                peak_instances=runtime.peak_instances,
                flushed=queue.flushed_total,
                uploaded=queue.uploaded_total))
        self.last_stats = run_stats

    def _run_merged(self, source, sink=None) -> List[str]:
        """Union of all member queries' results, in document order.

        Member queries must not be aggregates (a merged union of scalar
        aggregates has no document order); aggregate members raise
        :class:`UnsupportedFeatureError`.
        """
        for query in self.queries:
            if isinstance(query.output, AggregateOutput):
                raise UnsupportedFeatureError(
                    "merged union cannot include aggregate query %r"
                    % (query.text,))
        sinks, _, queues = self._drive(source, shared_seq=True)
        tagged: List[Tuple[int, str]] = []
        for member_sink, queue in zip(sinks, queues):
            tagged.extend(zip(queue.emitted_seqs, member_sink))
        tagged.sort(key=lambda pair: pair[0])
        if sink is None:
            sink = []
        sink.extend(value for _, value in tagged)
        return sink

    def push(self, merged: bool = False):
        """Open a push handle over all member queries for one document.

        The returned :class:`~repro.xsq.push.MultiPushHandle` exposes
        ``feed_events(events)`` yielding ``(query_index, value)`` pairs
        incrementally (the :meth:`iter_results` shape), or — with
        ``merged=True`` — buffering for a document-order union returned
        by ``finish()`` (the merged shape).  Merged mode rejects
        aggregate members for the same reason :meth:`_run_merged` does.
        """
        if merged:
            for query in self.queries:
                if isinstance(query.output, AggregateOutput):
                    raise UnsupportedFeatureError(
                        "merged union cannot include aggregate query %r"
                        % (query.text,))
        from repro.xsq.push import MultiPushHandle
        return MultiPushHandle(self, merged=merged)

    def __repr__(self):
        return "<MultiQueryEngine %d queries>" % len(self.queries)
