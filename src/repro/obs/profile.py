"""Execution profiler: EXPLAIN ANALYZE for a streaming XPath run.

The paper's evaluation (Fig 18) splits XSQ's runtime into parse,
automaton and buffer phases; :class:`Profiler` reproduces that split
from *live attribution* instead of separate instrumented builds.  It
rides the same ``obs=`` seam as the rest of :mod:`repro.obs`:

* **Interpreted engines** (XSQ-F, XSQ-NC) and **query groups**: the
  document session wraps each runtime's feed (or, in a group, each
  member's ``run_batch``, which the group feeds one tuple at a time)
  in a timer that reads the clock at every phase boundary — the time
  between two consecutive clock reads is attributed to the phase
  between them, so parse + automaton sum to the session loop's wall
  time by construction.
  Buffer and output sub-phases come from a wrapping
  :class:`_ProfiledQueue`; predicate evaluation from gated timing
  inside the matchers' watch scans.
* **The compiled fast path** keeps its batched kernel: every batch is
  timed at the batch boundary (four clock reads per ~2048 events,
  noise-level), and *per-event* attribution — hot HPDT state, hot tag,
  buffer ops — is sampled on every ``sample_interval``-th batch, then
  scaled.  Unsampled batches execute the unchanged kernel, so the
  fast path's throughput floor holds.  A kernel sends a determined
  result without enqueueing it (:mod:`repro.xsq.codegen`), so its
  ``buffer`` and ``output`` phases cover only the items it buffered;
  the direct sends stay in the automaton residue.

Phase vocabulary (the keys of :attr:`Profiler.phases`):

=========== ========================================================
``compile``  query text -> HPDT (-> FastPlan), measured by the driver
``parse``    pulling events/batches out of the SAX source
``automaton`` ``runtime.feed`` / ``run_batch`` — transition dispatch
``predicate`` watch scans + verdict tests (inside ``automaton``)
``buffer``   enqueue/clear/upload/finalize ops (inside ``automaton``)
``output``   output marks + head-of-queue drains (inside ``automaton``)
``finish``   end-of-stream drain
=========== ========================================================

``predicate``/``buffer``/``output`` are children of ``automaton``; the
residue (``automaton`` minus children) is reported as transition/match
work.  The windows can overlap by at most the predicate-resolution
cascade time (a witness that flushes an item is counted in both the
predicate scan and the queue op), which the report clamps.

Use via the facade::

    report = repro.compile(query).profile("catalog.xml")
    print(report.render())        # EXPLAIN ANALYZE table
    print(report.folded())        # flamegraph folded stacks
    report.as_dict()              # JSON
    report.fig18()                # the paper's parse/automaton/buffer split

or ``xsq profile QUERY FILE`` on the command line.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: Default fast-path sampling interval: one batch in 64 gets per-event
#: attribution (~2048-event batches -> ~1.6% of events pay the per-event
#: clock cost, keeping profiled fast runs within a few percent of seed).
DEFAULT_SAMPLE_INTERVAL = 64

#: Queue methods attributed to the ``buffer`` phase (item bookkeeping).
_BUFFER_OPS = ("new_item", "mark_dead", "upload", "value_finalized")
#: Queue methods attributed to the ``output`` phase (emission path).
_OUTPUT_OPS = ("mark_output", "finish")


class _ProfiledQueue:
    """Timing proxy around an :class:`~repro.xsq.buffers.OutputQueue`.

    Public buffer operations are timed into the profiler's ``buffer``
    and ``output`` phases; everything else (counters, ``track_ownership``,
    the plain-bound method variants) delegates to the wrapped queue, so
    stats read through it unchanged.
    """

    __slots__ = ("_inner", "_prof")

    def __init__(self, inner, prof: "Profiler"):
        self._inner = inner
        self._prof = prof

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _timed(self, phase, method, args, kwargs):
        prof = self._prof
        t0 = prof.clock()
        result = method(*args, **kwargs)
        prof.add_phase(phase, prof.clock() - t0)
        return result

    def new_item(self, *args, **kwargs):
        return self._timed("buffer", self._inner.new_item, args, kwargs)

    def mark_dead(self, *args, **kwargs):
        return self._timed("buffer", self._inner.mark_dead, args, kwargs)

    def upload(self, *args, **kwargs):
        return self._timed("buffer", self._inner.upload, args, kwargs)

    def value_finalized(self, *args, **kwargs):
        return self._timed("buffer", self._inner.value_finalized,
                           args, kwargs)

    def mark_output(self, *args, **kwargs):
        return self._timed("output", self._inner.mark_output, args, kwargs)

    def finish(self, *args, **kwargs):
        return self._timed("output", self._inner.finish, args, kwargs)


class Profiler:
    """Accumulates phase/entity attribution across one or more runs.

    Attach via ``Observability(profile=True)`` (or pass a configured
    instance: ``Observability(profile=Profiler(sample_interval=16))``).
    Document sessions instrument the runtimes they drive through the
    ``timed_*`` hooks; drivers stamp :attr:`wall` and call
    :meth:`report`.
    """

    enabled = True

    def __init__(self, sample_interval: int = DEFAULT_SAMPLE_INTERVAL):
        self.clock = time.perf_counter
        self.sample_interval = max(1, int(sample_interval))
        #: phase name -> [seconds, count]
        self.phases: Dict[str, List[float]] = {}
        #: (engine, matched-steps m) -> [seconds, events]
        self.states: Dict[Tuple[str, int], List[float]] = {}
        #: tag -> [seconds, events]
        self.tags: Dict[str, List[float]] = {}
        #: query label -> [seconds, events routed]
        self.queries: Dict[str, List[float]] = {}
        self.engines: List[str] = []
        #: Parsed stream events, including those the parser dropped.
        self.events = 0
        #: Events a closed tag table let the parser drop (no tuple).
        self.dropped = 0
        self.results = 0
        #: Fast-path sampling bookkeeping (0 when fully exact): parsed
        #: events the sampled batches covered, and the tuples behind
        #: the sampling scale (tuples fed over tuples sampled).
        self.sampled_events = 0
        self._fed_tuples = 0
        self._sampled_tuples = 0
        self.sampling = False
        #: Driver-measured wall seconds (compile + run), the coverage
        #: denominator.
        self.wall = 0.0

    # -- accumulation ----------------------------------------------------

    def add_phase(self, name: str, seconds: float, count: int = 1) -> None:
        cell = self.phases.get(name)
        if cell is None:
            self.phases[name] = [seconds, count]
        else:
            cell[0] += seconds
            cell[1] += count

    def note_engine(self, name: str) -> None:
        if name not in self.engines:
            self.engines.append(name)

    def _bump(self, table: dict, key, seconds: float) -> None:
        cell = table.get(key)
        if cell is None:
            table[key] = [seconds, 1]
        else:
            cell[0] += seconds
            cell[1] += 1

    def _cell(self, name: str) -> List[float]:
        return self.phases.setdefault(name, [0.0, 0])

    # -- session hooks ---------------------------------------------------
    #
    # A document session (repro.xsq.push) calls one of the ``timed_*``
    # hooks when it opens, to instrument the runtimes it drives; its
    # loop is the one un-profiled sessions run.  Each hook's clock
    # reads chain from the session's open: the read that closes one
    # feed window opens the next parse window, so parse + automaton
    # equal the wall time of the session's feeds by construction.

    def attach(self, engine: str, runtime, proxy: bool = True) -> None:
        """Time ``runtime``'s end-of-stream drain into ``finish``; with
        ``proxy``, also its buffer ops (the queue proxy) and predicate
        scans (the matchers read ``runtime.prof``)."""
        self.note_engine(engine)
        if proxy:
            runtime.queue = _ProfiledQueue(runtime.queue, self)
            # MatcherRuntime/_NCRuntime read ``self.prof`` inside their
            # watch-scan branches; FastRuntime has no such attribute
            # (its predicate work stays inside the automaton residue).
            if hasattr(runtime, "prof"):
                runtime.prof = self
        finish = runtime.finish
        clock = self.clock

        def timed_finish():
            # Unwrap the queue proxy first: the end-of-stream drain
            # belongs to ``finish``, not ``output`` (which sub-divides
            # ``automaton``), and the session's stats read the real
            # queue after.
            queue = runtime.queue
            if isinstance(queue, _ProfiledQueue):
                runtime.queue = queue._inner
            t0 = clock()
            finish()
            self.add_phase("finish", clock() - t0)

        runtime.finish = timed_finish

    def timed_feed(self, engine: str, runtime, feed):
        """``feed`` timed per event, by HPDT state and tag (interpreted
        single-query sessions)."""
        self.attach(engine, runtime)
        clock = self.clock
        state_of = getattr(runtime, "profile_state", None)
        parse = self._cell("parse")
        automaton = self._cell("automaton")
        states = self.states
        tags = self.tags
        bump = self._bump
        last = clock()

        def profiled(event):
            nonlocal last
            t1 = clock()
            m = state_of() if state_of is not None else -1
            feed(event)
            t2 = clock()
            dt = t2 - t1
            parse[0] += t1 - last
            parse[1] += 1
            automaton[0] += dt
            automaton[1] += 1
            bump(states, (engine, m), dt)
            bump(tags, event.tag, dt)
            self.events += 1
            last = t2

        return profiled

    def timed_kernel(self, engine: str, runtime, tag_names: List[str]):
        """Time a kernel session's ``run_batch`` at batch boundaries.

        Four clock reads per ~2048-event batch keep parse + automaton
        exact and noise-level cheap.  *Per-event* attribution — hot
        state, hot tag, buffer/output split — runs only on every
        ``sample_interval``-th batch, via single-tuple kernel calls
        that are semantically identical to the batched form
        (the automaton state carries across calls); the queue
        proxy is installed for the sampled window only, so buffer and
        output seconds are sampled at the same rate as states.
        Unsampled batches run the unchanged kernel, which keeps
        profiled fast runs within the 2x-throughput floor.

        ``events`` and the ``parse`` count are the parsed stream
        length: each batch adds its tuples plus the events the parser
        dropped before building any (``Batch.dropped``), which are also
        tallied on their own.  ``automaton`` counts the tuples the
        kernel ran, and the sampling scale divides tuples fed by tuples
        sampled.
        """
        self.attach(engine, runtime, proxy=False)
        kernel = runtime.run_batch
        clock = self.clock
        interval = self.sample_interval
        parse = self._cell("parse")
        automaton = self._cell("automaton")
        states = self.states
        tags = self.tags
        bump = self._bump
        last = clock()
        index = 0

        def profiled(batch):
            nonlocal last, index
            t1 = clock()
            dropped = getattr(batch, "dropped", 0)
            if index % interval == 0:
                self.sampling = True
                inner = runtime.queue
                runtime.queue = _ProfiledQueue(inner, self)
                try:
                    for event in batch:
                        m = runtime.profile_state()
                        t0 = clock()
                        kernel((event,))
                        dt = clock() - t0
                        bump(states, (engine, m), dt)
                        bump(tags, tag_names[event[1]], dt)
                finally:
                    runtime.queue = inner
                self.sampled_events += len(batch) + dropped
                self._sampled_tuples += len(batch)
            else:
                kernel(batch)
            t2 = clock()
            n = len(batch)
            parse[0] += t1 - last
            parse[1] += n + dropped
            automaton[0] += t2 - t1
            automaton[1] += n
            self.events += n + dropped
            self.dropped += dropped
            self._fed_tuples += n
            index += 1
            last = t2

        runtime.run_batch = profiled

    def timed_dispatch(self, engine: str, runtimes, labels: List[str]):
        """Instrument a group session's members for per-query timing.

        Wraps every member's ``run_batch`` (kernel or XSQ-F) in place,
        so the session must bind ``run_batch`` after this call; each
        call is timed into its query's row and the current event's tag.
        Returns ``mark``: the session calls ``mark(event)`` as each
        event arrives (closing its parse window).  The queue proxy
        :meth:`attach` installs times the buffer ops of both kinds:
        every member reads ``self.queue`` on each call.
        """
        for runtime in runtimes:
            self.attach(engine, runtime)
        clock = self.clock
        parse = self._cell("parse")
        automaton = self._cell("automaton")
        tags = self.tags
        queries = self.queries
        last = clock()
        tag_cell = [0.0, 0]

        def mark(event):
            nonlocal last, tag_cell
            t = clock()
            parse[0] += t - last
            parse[1] += 1
            automaton[1] += 1
            self.events += 1
            tag_cell = tags.setdefault(event.tag, [0.0, 0])
            tag_cell[1] += 1
            last = t

        def timed(label, run_batch):
            row = queries.setdefault(label, [0.0, 0])

            def call(batch):
                nonlocal last
                t0 = clock()
                run_batch(batch)
                t1 = clock()
                row[0] += t1 - t0
                row[1] += 1
                automaton[0] += t1 - last
                tag_cell[0] += t1 - last
                last = t1

            return call

        for runtime, label in zip(runtimes, labels):
            runtime.run_batch = timed(label, runtime.run_batch)
        return mark

    # -- report ----------------------------------------------------------

    def report(self, query: str = "", engine: Optional[str] = None,
               stats=None, results: Optional[int] = None) -> "ProfileReport":
        return ProfileReport(
            query=query,
            engine=engine or "+".join(self.engines) or "?",
            wall=self.wall,
            phases={k: tuple(v) for k, v in self.phases.items()},
            states={k: tuple(v) for k, v in self.states.items()},
            tags={k: tuple(v) for k, v in self.tags.items()},
            queries={k: tuple(v) for k, v in self.queries.items()},
            counts=stats.as_dict() if stats is not None else {},
            events=self.events,
            results=self.results if results is None else results,
            sampling=({"interval": self.sample_interval,
                       "sampled_events": self.sampled_events,
                       "scale": (self._fed_tuples / self._sampled_tuples
                                 if self._sampled_tuples else 0.0)}
                      if self.sampling else None),
            dropped=self.dropped,
        )


class ProfileReport:
    """One profiled run, rendered four ways (text/folded/JSON/Fig 18)."""

    #: Sub-phases nested under ``automaton`` in every rendering.
    CHILD_PHASES = ("predicate", "buffer", "output")

    def __init__(self, query: str, engine: str, wall: float,
                 phases: Dict[str, Tuple[float, int]],
                 states: Dict[Tuple[str, int], Tuple[float, int]],
                 tags: Dict[str, Tuple[float, int]],
                 queries: Dict[str, Tuple[float, int]],
                 counts: dict, events: int, results: int,
                 sampling: Optional[dict] = None, dropped: int = 0):
        self.query = query
        self.engine = engine
        self.wall = wall
        self.phases = phases
        self.states = states
        self.tags = tags
        self.queries = queries
        self.counts = counts
        self.events = events
        self.results = results
        self.sampling = sampling
        #: Of :attr:`events`, those the parser dropped without a tuple.
        self.dropped = dropped

    # -- derived ---------------------------------------------------------

    def _seconds(self, phase: str) -> float:
        return self.phases.get(phase, (0.0, 0))[0]

    def _scale(self) -> float:
        """Sampled-to-total multiplier for sampled sub-phase estimates."""
        if self.sampling and self.sampling["scale"] > 0:
            return self.sampling["scale"]
        return 1.0

    @property
    def attributed_seconds(self) -> float:
        """Top-level phase sum (children are inside ``automaton``)."""
        return (self._seconds("compile") + self._seconds("parse")
                + self._seconds("automaton") + self._seconds("finish"))

    @property
    def coverage(self) -> float:
        """Attributed share of the measured wall time (target >= 0.95)."""
        if self.wall <= 0:
            return 1.0
        return min(1.0, self.attributed_seconds / self.wall)

    def match_seconds(self) -> float:
        """Automaton residue: transition dispatch + (fast path) predicates."""
        scale = self._scale()
        children = sum(self._seconds(p) for p in self.CHILD_PHASES) * scale
        return max(0.0, self._seconds("automaton") - children)

    # -- renderings ------------------------------------------------------

    def render(self, top: int = 8) -> str:
        wall = self.wall if self.wall > 0 else self.attributed_seconds
        wall = wall or 1e-12
        scale = self._scale()
        sampled = self.sampling is not None

        def pct(seconds: float) -> str:
            return "%5.1f%%" % (100.0 * seconds / wall)

        lines = ["EXPLAIN ANALYZE  %s" % (self.query or "<query>")]
        lines.append(
            "engine: %s   events: %s   results: %s   wall: %.6fs   "
            "attributed: %.1f%%"
            % (self.engine, "{:,}".format(self.events),
               "{:,}".format(self.results), wall, 100.0 * self.coverage))
        if self.dropped:
            lines.append("dropped at the parser: %s of %s events (no "
                         "compiled plan can react to their tags)"
                         % ("{:,}".format(self.dropped),
                            "{:,}".format(self.events)))
        lines.append("")
        lines.append("%-28s %12s  %7s  %12s" % ("phase", "seconds",
                                                "% wall", "count"))
        rows = [("compile", self._seconds("compile"),
                 self.phases.get("compile", (0, 0))[1], 1.0),
                ("parse/batch", self._seconds("parse"),
                 self.phases.get("parse", (0, 0))[1], 1.0),
                ("automaton (dispatch)", self._seconds("automaton"),
                 self.phases.get("automaton", (0, 0))[1], 1.0)]
        child_rows = []
        for name in self.CHILD_PHASES:
            seconds, count = self.phases.get(name, (0.0, 0))
            if count or seconds:
                child_rows.append((name, seconds * scale, count, scale))
        child_rows.append(("transition/match", self.match_seconds(), 0, 1.0))
        finish_row = ("finish", self._seconds("finish"),
                      self.phases.get("finish", (0, 0))[1], 1.0)
        for name, seconds, count, row_scale in rows:
            lines.append("%-28s %12.6f  %s  %12s"
                         % (name, seconds, pct(seconds),
                            "{:,}".format(count) if count else "-"))
            if name.startswith("automaton"):
                for cname, cseconds, ccount, cscale in child_rows:
                    marker = "~" if sampled and cscale != 1.0 else " "
                    lines.append("  %s%-25s %12.6f  %s  %12s"
                                 % (marker, cname, cseconds, pct(cseconds),
                                    "{:,}".format(ccount) if ccount
                                    else "-"))
        lines.append("%-28s %12.6f  %s  %12s"
                     % (finish_row[0], finish_row[1], pct(finish_row[1]),
                        "{:,}".format(finish_row[2])
                        if finish_row[2] else "-"))
        if self.states:
            lines.append("")
            lines.append("hot HPDT states (m = matched location steps)")
            ranked = sorted(self.states.items(),
                            key=lambda kv: kv[1][0], reverse=True)[:top]
            for (engine, m), (seconds, count) in ranked:
                label = ("m=%d" % m) if m >= 0 else "m=?"
                lines.append("  %-10s %-9s %12.6fs %s  %10s events"
                             % (engine, label, seconds * scale,
                                pct(seconds * scale), "{:,}".format(count)))
        if self.tags:
            lines.append("")
            lines.append("hot tags")
            ranked = sorted(self.tags.items(),
                            key=lambda kv: kv[1][0], reverse=True)[:top]
            for tag, (seconds, count) in ranked:
                lines.append("  %-20s %12.6fs %s  %10s events"
                             % (tag or "(text)", seconds * scale,
                                pct(seconds * scale), "{:,}".format(count)))
        if self.queries:
            lines.append("")
            lines.append("per query (grouped dispatch)")
            ranked = sorted(self.queries.items(),
                            key=lambda kv: kv[1][0], reverse=True)
            for label, (seconds, count) in ranked:
                lines.append("  %-44s %12.6fs %s  %10s events"
                             % (label[:44], seconds, pct(seconds),
                                "{:,}".format(count)))
        if self.counts:
            lines.append("")
            lines.append("buffer ops: " + "  ".join(
                "%s=%s" % (key, self.counts[key])
                for key in ("enqueued", "cleared", "flushed", "uploaded",
                            "emitted") if key in self.counts))
        if sampled:
            lines.append("")
            lines.append(
                "(fast path: per-event rows sampled on 1/%d batches — "
                "%s of %s events — and scaled x%.1f)"
                % (self.sampling["interval"],
                   "{:,}".format(self.sampling["sampled_events"]),
                   "{:,}".format(self.events),
                   self.sampling["scale"]))
        return "\n".join(lines)

    def folded(self) -> str:
        """Folded-stack lines (``a;b;c weight``) for flamegraph tools.

        Weights are integer microseconds; zero-weight frames are
        dropped.  Root frame is the engine name.
        """
        scale = self._scale()
        root = self.engine

        def us(seconds: float) -> int:
            return int(round(seconds * 1e6))

        entries = [
            ("%s;compile" % root, self._seconds("compile")),
            ("%s;stream;parse" % root, self._seconds("parse")),
            ("%s;stream;automaton;transition" % root, self.match_seconds()),
            ("%s;stream;automaton;predicate" % root,
             self._seconds("predicate") * scale),
            ("%s;stream;automaton;buffer" % root,
             self._seconds("buffer") * scale),
            ("%s;stream;automaton;output" % root,
             self._seconds("output") * scale),
            ("%s;finish" % root, self._seconds("finish")),
        ]
        lines = ["%s %d" % (stack, us(seconds))
                 for stack, seconds in entries if us(seconds) > 0]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "type": "profile",
            "query": self.query,
            "engine": self.engine,
            "wall_seconds": self.wall,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "events": self.events,
            "dropped": self.dropped,
            "results": self.results,
            "phases": {name: {"seconds": seconds, "count": count}
                       for name, (seconds, count) in
                       sorted(self.phases.items())},
            "match_seconds": self.match_seconds(),
            "states": [{"engine": engine, "matched_steps": m,
                        "seconds": seconds, "events": count}
                       for (engine, m), (seconds, count) in
                       sorted(self.states.items(),
                              key=lambda kv: kv[1][0], reverse=True)],
            "tags": [{"tag": tag, "seconds": seconds, "events": count}
                     for tag, (seconds, count) in
                     sorted(self.tags.items(),
                            key=lambda kv: kv[1][0], reverse=True)],
            "queries": [{"query": label, "seconds": seconds,
                         "events": count}
                        for label, (seconds, count) in
                        sorted(self.queries.items(),
                               key=lambda kv: kv[1][0], reverse=True)],
            "counts": self.counts,
            "sampling": self.sampling,
        }

    def fig18(self) -> dict:
        """The paper's Fig 18 split: parse / automaton / buffer shares.

        Shares are of the *query-phase* runtime (compile excluded, as
        in the figure); ``buffer`` merges the buffer and output phases
        plus the end-of-stream drain.
        """
        scale = self._scale()
        parse = self._seconds("parse")
        buffer_s = ((self._seconds("buffer") + self._seconds("output"))
                    * scale + self._seconds("finish"))
        automaton = (self.match_seconds()
                     + self._seconds("predicate") * scale)
        total = parse + buffer_s + automaton
        if total <= 0:
            total = 1.0
        return {
            "parse": 100.0 * parse / total,
            "automaton": 100.0 * automaton / total,
            "buffer": 100.0 * buffer_s / total,
        }

    def render_fig18(self) -> str:
        split = self.fig18()
        lines = ["Fig 18 phase breakdown (%s, live attribution)"
                 % self.engine]
        for name in ("parse", "automaton", "buffer"):
            share = split[name]
            bar = "#" * int(round(share / 2))
            lines.append("  %-10s %5.1f%%  %s" % (name, share, bar))
        return "\n".join(lines)

    def diff(self, other: "ProfileReport") -> str:
        """Differential mode: phase-by-phase comparison of two runs."""
        lines = ["phase breakdown: %s vs %s" % (self.engine, other.engine)]
        lines.append("%-24s %12s %12s %10s"
                     % ("phase", self.engine[:12], other.engine[:12],
                        "delta"))
        names = ["compile", "parse", "automaton", "predicate", "buffer",
                 "output", "finish"]
        for name in names:
            a = self._seconds(name) * (self._scale()
                                       if name in self.CHILD_PHASES else 1)
            b = other._seconds(name) * (other._scale()
                                        if name in other.CHILD_PHASES
                                        else 1)
            if a == 0 and b == 0:
                continue
            if a > 0:
                delta = "%+.1f%%" % (100.0 * (b - a) / a)
            else:
                delta = "new"
            lines.append("%-24s %12.6f %12.6f %10s" % (name, a, b, delta))
        lines.append("%-24s %12.6f %12.6f" % ("wall", self.wall,
                                              other.wall))
        return "\n".join(lines)

    def __repr__(self):
        return ("<ProfileReport %s events=%d coverage=%.1f%%>"
                % (self.engine, self.events, 100 * self.coverage))


def profile_query(query, source, engine: str = "auto",
                  sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
                  cache=None) -> ProfileReport:
    """Profile one evaluation of ``query`` over ``source``.

    ``query`` may be a query string / parsed Query (any engine,
    including unions) or a sequence of queries (grouped multi-query
    run).  Returns a :class:`ProfileReport`; the profiled engine's
    results are discarded (use :meth:`repro.CompiledQuery.run` for
    results, profiling is a measurement pass).
    """
    from repro.obs import Observability

    profiler = Profiler(sample_interval=sample_interval)
    obs = Observability(events=False, profile=profiler)
    clock = profiler.clock
    t0 = clock()
    if isinstance(query, (list, tuple)):
        from repro.xsq.multiquery import MultiQueryEngine
        eng = MultiQueryEngine(list(query), obs=obs, cache=cache)
        label = " | ".join(q.text if hasattr(q, "text") else str(q)
                           for q in eng.queries)
    else:
        from repro.api import select_engine
        eng = select_engine(query, engine, obs=obs, cache=cache)
        label = query if isinstance(query, str) else (query.text or "")
    profiler.add_phase("compile", clock() - t0)
    t1 = clock()
    results = eng.run(source)
    profiler.wall = clock() - t0
    if isinstance(query, (list, tuple)):
        result_count = sum(len(r) for r in results)
    else:
        result_count = len(results)
    return profiler.report(query=label, engine=eng.name, stats=eng.stats,
                           results=result_count)
