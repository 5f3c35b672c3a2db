"""XSQ-F: the full streaming XPath engine (closures + multiple
predicates + aggregations) — the paper's primary artifact.

Typical use::

    from repro import XSQEngine
    engine = XSQEngine("//pub[year>2000]//book[author]//name/text()")
    for value in engine.iter_results("catalog.xml"):
        print(value)

The compiled HPDT is built once per engine and reused across documents;
each ``run``/``iter_results`` call creates a fresh runtime.  Results are
emitted in document order, each exactly once, as soon as the paper's
buffer discipline allows (an item leaves the buffer the moment the last
governing predicate resolves *and* it reaches the head of the queue).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Union

from repro.xpath.ast import AggregateOutput, Query
from repro.xpath.parser import parse_query
from repro.xsq.aggregates import StatBuffer
from repro.xsq.buffers import BufferTrace
from repro.xsq.compile_cache import compile_hpdt
from repro.xsq.matcher import MatcherRuntime


class RunStats:
    """Counters from one engine run, used by tests and the bench harness.

    ``enqueued``/``cleared``/``flushed``/``uploaded`` are the paper's
    four buffer operations (Section 3.3), each counted exactly once, in
    ``buffers.py`` (``tests/test_obs.py`` asserts stats, trace, and
    metrics agree).  ``uploaded`` is populated only when a trace or an
    account is attached, because ownership hops are otherwise skipped
    entirely (they affect no output).
    """

    __slots__ = ("events", "enqueued", "cleared", "emitted",
                 "peak_buffered_items", "peak_instances",
                 "flushed", "uploaded")

    def __init__(self, events=0, enqueued=0, cleared=0, emitted=0,
                 peak_buffered_items=0, peak_instances=0,
                 flushed=0, uploaded=0):
        self.events = events
        self.enqueued = enqueued
        self.cleared = cleared
        self.emitted = emitted
        self.peak_buffered_items = peak_buffered_items
        self.peak_instances = peak_instances
        self.flushed = flushed
        self.uploaded = uploaded

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def of(cls, runtime, events: int) -> "RunStats":
        """The stats of one finished runtime that saw ``events`` events."""
        queue = runtime.queue
        return cls(events=events,
                   enqueued=queue.enqueued_total,
                   cleared=queue.cleared_total,
                   emitted=queue.emitted_total,
                   peak_buffered_items=queue.peak_size,
                   peak_instances=runtime.peak_instances,
                   flushed=queue.flushed_total,
                   uploaded=queue.uploaded_total)

    @classmethod
    def merged(cls, runs: Iterable["RunStats"]) -> "RunStats":
        """Aggregate stats across engines sharing one pass.

        Counters sum; peaks take the max; ``events`` takes the max
        (each member of a grouped run already reports the full stream
        length, so summing would double-count the shared pass).
        """
        return cls._fold(runs, shared_pass=True)

    @classmethod
    def totals(cls, runs: Iterable[Union["RunStats", dict]]) -> "RunStats":
        """Aggregate stats across *independent* runs (one per document).

        Unlike :meth:`merged` — which models engines sharing a single
        pass and therefore maxes ``events`` — here every run is its own
        stream, so every counter (``events`` included) sums and only
        the peaks take the max.  Accepts ``as_dict()`` payloads too,
        which is how worker processes ship their stats home; the fold
        is order-independent, so a sharded corpus totals identically to
        a serial one.
        """
        return cls._fold(runs, shared_pass=False)

    @classmethod
    def _fold(cls, runs, shared_pass: bool) -> "RunStats":
        total = cls()
        for run in runs:
            if isinstance(run, dict):
                run = cls(**run)
            if shared_pass:
                total.events = max(total.events, run.events)
            else:
                total.events += run.events
            total.enqueued += run.enqueued
            total.cleared += run.cleared
            total.emitted += run.emitted
            total.flushed += run.flushed
            total.uploaded += run.uploaded
            total.peak_buffered_items = max(total.peak_buffered_items,
                                            run.peak_buffered_items)
            total.peak_instances = max(total.peak_instances,
                                       run.peak_instances)
        return total

    def __repr__(self):
        return "RunStats(%s)" % ", ".join(
            "%s=%d" % (k, v) for k, v in self.as_dict().items())


def _schema_note(schema, schema_dead) -> str:
    """Explain line for an interpreted engine's schema plan.

    The interpreted runtimes get *eager falsification* (a dead tag
    settles a pending predicate FALSE on arrival) rather than the fast
    path's static gating, so the note counts the registered dead-tag
    watch hooks.
    """
    hooks = sum(len(entries) for entries in (schema_dead or {}).values())
    if hooks:
        return ("schema: fingerprint %s, eager falsification hooks on "
                "%d (step, tag) pair(s)" % (schema.fingerprint, hooks))
    return ("schema: fingerprint %s (no eager falsification rules apply)"
            % schema.fingerprint)


class _QueryEngine:
    """``run`` / ``iter_results`` / ``push`` / ``stats`` for one query.

    Every result mode is a document session (:mod:`repro.xsq.push`)
    over one fresh runtime; subclasses say which session in
    :meth:`_session`.
    """

    def run(self, source, sink: Optional[List[str]] = None) -> List[str]:
        """Evaluate the query over ``source`` and return all results.

        ``source`` may be a path, XML text, bytes, a file object, or an
        iterable of events.  For aggregate queries the single final
        value is returned (as a one-element list).  ``sink`` may supply
        a custom result collector (anything with ``append``; the bench
        harness passes a counting sink so memory measurements do not
        charge the engine for the caller's result list).
        """
        session = self._session([] if sink is None else sink, drain=False)
        return session.feed_source(source, query=self.query.text)

    def iter_results(self, source) -> Iterator[str]:
        """Yield results incrementally, as soon as they are determined.

        Interpreted engines yield after every event, the compiled fast
        path after every batch.  For aggregate queries this yields every
        intermediate value (the paper's streaming ``stat.update``
        semantics for unbounded streams), ending with the final value.
        """
        yield from self._session([], streaming_agg=True).iter_source(source)

    def push(self, streaming_agg: bool = False):
        """Open a push session for one incrementally-fed document.

        The returned handle (:mod:`repro.xsq.push`) exposes
        ``feed_events(events) -> results`` (and, on the fast path,
        ``feed_batch``) plus ``finish() -> results``; the caller owns
        the input loop (see :meth:`repro.api.CompiledQuery.feed` for
        the chunk-level façade).  With ``streaming_agg=True`` aggregate
        queries emit intermediate values per feed (the
        :meth:`iter_results` shape) instead of only the final value at
        ``finish()``.
        """
        return self._session([], streaming_agg=streaming_agg)

    def _session(self, sink: list, streaming_agg: bool = False,
                 drain: bool = True):
        raise NotImplementedError

    def _new_stat(self, streaming: bool) -> Optional[StatBuffer]:
        output = self.query.output
        if isinstance(output, AggregateOutput):
            return StatBuffer(output.name, track_snapshots=streaming)
        return None

    @property
    def stats(self) -> Optional[RunStats]:
        """Stats from the most recent run (the facade's uniform name)."""
        return self.last_stats

    def __repr__(self):
        return "<%s %r>" % (type(self).__name__, self.query.text)


class XSQEngine(_QueryEngine):
    """The XSQ-F engine: one compiled query, many documents.

    ``obs`` accepts an :class:`repro.obs.Observability` bundle; when
    attached, compilation and streaming are wrapped in spans, run stats
    flow into the metrics registry, and the bundle's
    :class:`~repro.obs.events.EventTrace` (if any) records every buffer
    operation.  When ``obs is None`` (the default) the
    hot loop is exactly the un-instrumented one.
    """

    name = "xsq-f"
    supports_predicates = True
    supports_closures = True
    supports_aggregates = True
    streaming = True
    runtime_line = "runtime: xsq-f (nondeterministic interpreted runtime)"

    def __init__(self, query: Union[str, Query], obs=None, *,
                 cache=None, schema=None):
        self.obs = obs
        self.schema = None
        self._schema_dead = None
        schema_key = None
        analyze = None
        if schema is not None:
            # Imported lazily: the schema-less path must not pay for
            # (or even import) the schema compiler.
            from repro.xsq.schema_compile import (analyze_runtime,
                                                  coerce_schema)
            self.schema = coerce_schema(schema)
            schema_key = self.schema.fingerprint
            analyze = analyze_runtime
        if obs is not None:
            with obs.span("compile", engine=self.name):
                if isinstance(query, str):
                    from repro.xpath.tokens import tokenize_query
                    with obs.span("tokenize"):
                        tokenize_query(query.strip())
                    with obs.span("parse"):
                        query = parse_query(query)
                query = self._checked(query)
                with obs.span("hpdt-compile"):
                    self.hpdt = compile_hpdt(query, cache=cache, obs=obs,
                                             schema_key=schema_key)
        else:
            self.hpdt = compile_hpdt(self._checked(query), cache=cache,
                                     schema_key=schema_key)
        self.query = self.hpdt.query
        if analyze is not None:
            self._schema_dead = analyze(self.schema, self.query)
        if obs is not None and obs.events is not None:
            self.trace: Optional[BufferTrace] = obs.events
        else:
            self.trace = None
        self.last_stats: Optional[RunStats] = None
        self.last_stat_buffer: Optional[StatBuffer] = None
        # Set by repro.api.select_engine when engine="auto" fell back
        # here from the compiled fast path; surfaced by explain().
        self.selection_note: Optional[str] = None

    def _checked(self, query: Union[str, Query]) -> Union[str, Query]:
        """Reject queries this engine cannot run (XSQ-F runs them all)."""
        return query

    def _session(self, sink: list, streaming_agg: bool = False,
                 drain: bool = True):
        from repro.xsq.push import EventPushHandle
        stat = self._new_stat(streaming_agg)
        account = None
        if self.obs is not None and self.obs.accounting is not None:
            account = self.obs.accounting.account(self.query.text,
                                                  engine=self.name)
        return EventPushHandle(self, self._new_runtime(sink, stat, account),
                               sink, stat, streaming_agg, drain)

    def _new_runtime(self, sink: List[str], stat: Optional[StatBuffer],
                     account):
        return MatcherRuntime(self.hpdt, sink, trace=self.trace,
                              stat=stat, account=account,
                              schema_dead=self._schema_dead)

    def explain(self) -> str:
        """Describe the compiled HPDT (the CLI's --explain output)."""
        lines = [self.hpdt.describe(), "", self.runtime_line]
        if self.schema is not None:
            lines.append(_schema_note(self.schema, self._schema_dead))
        if self.selection_note:
            lines.append(self.selection_note)
        return "\n".join(lines)
