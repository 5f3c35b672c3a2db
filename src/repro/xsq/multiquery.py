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
is shared.  The tag index is the only router; the bench harness
(``benchmarks/bench_multiquery.py``) keeps its own dense loop (every
event to every XSQ-F runtime) as the baseline it measures against.

Every result mode is the one group session
(:class:`~repro.xsq.push.MultiPushHandle`) fed by a different caller:

* :meth:`MultiQueryEngine.run` — per-query result lists (the
  subscription/dissemination shape);
* :meth:`MultiQueryEngine.iter_results` and :meth:`MultiQueryEngine.push`
  — incremental ``(query_index, value)`` pairs as results are
  determined, interleaved in stream order;
* :class:`repro.api.UnionEngine`, the one union runner (a top-level
  ``|`` query, or a closure the schema optimizer expanded into several
  child-axis paths) — one union result list in global document order.
  Its members' output queues stamp every buffered item from a *shared*
  sequence counter, so document order across the member queries is
  just item order.

The engine lowers its members once, at construction, and that is its
only lowering: every member that lowers to a generated kernel against
the group's one shared :class:`~repro.xsq.fastpath.TagTable` —
child-axis paths, and closure paths without predicates or element
output — runs it on its route-partitioned share of each parser batch,
and the rest run XSQ-F's matcher, all fed from one parse.  Only the
queries and one kind of ``obs`` bundle decide the lowering: a union
(whose order comes from XSQ-F's sequence counter) and a bundle with
per-event instruments (:attr:`repro.obs.Observability.per_event`),
which kernels have no hooks for, lower every member to XSQ-F; a
spans-and-metrics bundle and a profiler keep the kernels.  Sessions
that promise order across members (``push()``, ``iter_results()``,
the union, any ``obs`` session) feed each tuple to its route alone.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import FastPathUnsupportedError
from repro.xpath.ast import Query
from repro.xsq.compile_cache import compile_hpdt
from repro.xsq.dispatch import DispatchIndex, projection_note
from repro.xsq.engine import RunStats
from repro.xsq.fastpath import FastPlan, TagTable, compile_fastplan
from repro.xsq.hpdt import Hpdt


class MultiQueryEngine:
    """One pass, many queries, shared event dispatch.

    ``obs`` accepts an :class:`repro.obs.Observability` bundle (spans,
    run stats, dispatch-index gauges and per-event fanout histograms).
    ``cache`` is forwarded to :func:`repro.xsq.compile_cache.compile_hpdt`
    (``None`` = process default, ``False`` = compile fresh).

    >>> engine = MultiQueryEngine(["/pub/book/name/text()",
    ...                            "/pub/year/text()"])
    >>> engine.run("<pub><book><name>N</name></book><year>2002</year></pub>")
    [['N'], ['2002']]
    """

    name = "multiquery"
    #: True on :class:`repro.api.UnionEngine`: sessions return the
    #: document-order union and every member runs XSQ-F.
    merged = False

    def __init__(self, queries: Sequence[Union[str, Query]], obs=None, *,
                 cache=None):
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
        self.index = DispatchIndex(self.hpdts)
        count = len(self.hpdts)
        self.member_fallbacks: List[Optional[str]] = [None] * count
        self.member_kernel_notes: List[Optional[str]] = [None] * count
        self.fast_group_note: Optional[str] = (
            "a union orders items by XSQ-F's shared sequence counter"
            if self.merged else
            "per-event observability needs the interpreted runtimes"
            if obs is not None and obs.per_event else None)
        # The one lowering every session of this engine runs on.
        self._fast = self._lower()
        self.last_stats: Optional[List[RunStats]] = None
        if obs is not None:
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

    def _lower(self):
        """Lower every member for the group session: ``(tags, plans,
        routes, default)``.

        Every member is lowered separately against one shared
        :class:`TagTable`, so the dispatch index's id routes agree with
        every plan's transition-row keys; a member outside the fast-path
        classes (closure with predicates or element output, not()/or(),
        path predicate) gets ``None`` and runs on XSQ-F beside the
        kernels.  Each route splits the members an event's tag id
        reaches into ``(kernel members, interpreted members)``.

        When :attr:`fast_group_note` names a reason (a union or a
        per-event ``obs`` bundle) every plan is ``None`` and nothing is
        code-generated.  An ``obs`` lowering keeps the table open, so
        the instruments see every event; otherwise, when no member is
        greedy (no member needs every tag), the table is closed once
        the id routes have interned every bucketed tag, so the group's
        parser projects the stream.  Per-member outcomes
        (fallback slugs, kernel notes) land on :attr:`member_fallbacks`
        / :attr:`member_kernel_notes` for ``explain()``.
        """
        tags = TagTable()
        plans: List[Optional[FastPlan]] = [None] * len(self.hpdts)
        if self.fast_group_note is None:
            from repro.xsq.codegen import compile_kernel
            for i, hpdt in enumerate(self.hpdts):
                try:
                    plans[i] = plan = compile_fastplan(hpdt, tags)
                except FastPathUnsupportedError as exc:
                    self.member_fallbacks[i] = exc.reason
                    continue
                self.member_kernel_notes[i] = compile_kernel(plan)[1]

        def split(members):
            return (tuple(i for i in members if plans[i] is not None),
                    tuple(i for i in members if plans[i] is None))

        routes, default = self.index.id_routes(tags)
        if not default and self.obs is None:
            # No greedy member: every tag some member can react to now
            # has an id, so the parser may drop the rest.
            tags.close()
        return (tags, plans,
                {tid: split(members) for tid, members in routes.items()},
                split(default))

    @property
    def member_runtimes(self) -> List[str]:
        """The runtime each member runs: ``kernel`` or ``xsq-f``."""
        return ["kernel" if plan is not None else "xsq-f"
                for plan in self._fast[1]]

    def member_selection_notes(self) -> List[str]:
        """One engine-selection note per member query, for explain():
        its runtime and why, and its parser projection on a second
        line."""
        notes = []
        for i, (query, runtime) in enumerate(zip(self.queries,
                                                 self.member_runtimes)):
            if runtime == "kernel":
                why = self.member_kernel_notes[i]
            elif self.member_fallbacks[i] is not None:
                why = "fast path not selected: %s" % self.member_fallbacks[i]
            else:
                why = self.fast_group_note
            notes.append("member %d: %s — %s (%s)\n  %s"
                         % (i, query.text, runtime, why,
                            self.member_projection(i)))
        return notes

    def member_projection(self, index: int) -> str:
        """Member ``index``'s ``parser projection:`` line: the tags it
        keeps, or why it needs every tag (which keeps the whole group's
        table open)."""
        hpdt = self.hpdts[index]
        return projection_note(hpdt, len(hpdt.tag_interest()[0]))

    # -- execution ----------------------------------------------------------
    #
    # Every mode is the one group session (repro.xsq.push.MultiPushHandle).

    def run(self, source, sinks=None) -> List[List[str]]:
        """Per-query results from a single pass over ``source``.

        ``sinks`` optionally supplies one collector per query (anything
        with ``append``), mirroring the single-query engines' ``sink=``;
        results stream into them during the pass.
        """
        from repro.xsq.push import MultiPushHandle
        session = MultiPushHandle(self, sinks=sinks, drain=False,
                                  ordered=False)
        return session.feed_source(source, queries=len(self.queries))

    def iter_results(self, source) -> Iterator[Tuple[int, object]]:
        """Yield ``(query_index, value)`` pairs as they are determined.

        Values for different queries interleave in stream order.
        Aggregate members yield their single final value after the
        stream ends (an aggregate is undetermined until then).
        """
        from repro.xsq.push import MultiPushHandle
        yield from MultiPushHandle(self).iter_source(source)

    def push(self):
        """Open a push session over all member queries for one document.

        The returned :class:`~repro.xsq.push.MultiPushHandle` exposes
        ``feed_batch(batch)`` and ``feed_events(events)`` yielding
        ``(query_index, value)`` pairs incrementally, in stream order
        (the :meth:`iter_results` shape).
        """
        from repro.xsq.push import MultiPushHandle
        return MultiPushHandle(self)

    def __repr__(self):
        return "<MultiQueryEngine %d queries>" % len(self.queries)
