"""The unified compile facade: one entry point, every engine.

The repository grew three engine front doors — :class:`XSQEngine`
(XSQ-F), :class:`XSQEngineNC` (XSQ-NC) and :class:`MultiQueryEngine` —
each with slightly different construction and result conventions.
:func:`compile` replaces them for everyday use::

    import repro

    q = repro.compile("//book[price<11]/author/text()")
    q.run("catalog.xml")            # ['Alice', ...]
    q.stats.events                  # uniform RunStats across engines

    qs = repro.compile(["/a/b/text()", "//c/text()"])
    qs.run(stream)                  # one pass, per-query result lists

Engine selection (``engine="auto"``, the default) tries the tiers in
order fast → nc → f: the generated kernel when the query lowers to one,
else the deterministic XSQ-NC engine when the query has no closure
axis, else the full XSQ-F engine.  ``engine="fast"``, ``"nc"`` or
``"f"`` forces a choice (``"nc"`` raises
:class:`~repro.errors.ClosureNotSupportedError` on closure queries).
Top-level unions (``q1 | q2``) and reverse-axis queries that rewrite to
nothing are handled transparently — the facade returns the same
:class:`CompiledQuery` shape with a grouped or empty engine inside.

Compilation goes through the process-wide HPDT cache
(:mod:`repro.xsq.compile_cache`), so compiling the same query text
twice reuses the frozen transducer; pass ``cache=False`` to opt out or
an :class:`~repro.xsq.compile_cache.HpdtCache` to scope one.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import (ClosureNotSupportedError, FastPathUnsupportedError,
                          StreamError, UnsupportedFeatureError)
from repro.xpath.ast import AggregateOutput, Query
from repro.xpath.rewrite import (
    rewrite_reverse_axes,
    supports_reverse_axes,
    trailing_output,
)
from repro.xsq.aggregates import StatBuffer
from repro.xsq.engine import RunStats, XSQEngine
from repro.xsq.fastpath import XSQEngineFast
from repro.xsq.multiquery import MultiQueryEngine
from repro.xsq.nc import XSQEngineNC
from repro.xsq.push import MultiPushHandle, NullPushHandle

QueryLike = Union[str, Query]


class EmptyEngine:
    """Stand-in when a rewrite proves the query matches nothing.

    An aggregate ``output`` still has a value over no matches (its
    empty render, e.g. ``count()`` is ``0``), returned as the only
    result, as the other engines do.
    """

    name = "empty"
    last_stats = None
    stats = None

    def __init__(self, note: Optional[str] = None, output=None):
        self.note = note
        self._tail = ([StatBuffer(output.name).render()]
                      if isinstance(output, AggregateOutput) else [])

    def run(self, _source, sink=None):
        if sink is None:
            return list(self._tail)
        for value in self._tail:
            sink.append(value)
        return sink

    def iter_results(self, _source):
        return iter(self._tail)

    def push(self, streaming_agg: bool = False):
        return NullPushHandle(self, self._tail)

    def explain(self) -> str:
        if self.note:
            return "(empty query: %s)" % self.note
        return "(empty query: the reverse-axis rewrite proved no matches)"


class UnionEngine(MultiQueryEngine):
    """Top-level union: the one union runner.

    Covers a ``q1 | q2`` query and a closure the schema optimizer
    expanded into several child-axis paths.  The branches run as one
    query group in one pass; the group's only lowering runs every
    branch on XSQ-F (no branch is code-generated), whose output queues
    share one sequence counter, so the union comes out in document
    order, a node several branches select with the same output once.
    Results are determined at end of stream, so ``iter_results()`` and
    push feeds yield nothing before ``finish()``.  Aggregate branches
    are rejected: a union of scalar aggregates has no document order.
    """

    name = "xsq-union"
    merged = True

    def __init__(self, branches: Sequence[QueryLike], obs=None, *,
                 cache=None):
        super().__init__(branches, obs=obs, cache=cache)
        for query in self.queries:
            if isinstance(query.output, AggregateOutput):
                raise UnsupportedFeatureError(
                    "merged union cannot include aggregate query %r"
                    % (query.text,))

    def run(self, source, sink=None):
        union = MultiPushHandle(self).feed_source(
            source, queries=len(self.queries))
        if sink is None:
            return union
        for value in union:
            sink.append(value)
        return sink

    def iter_results(self, source):
        return iter(self.run(source))

    def push(self, streaming_agg: bool = False):
        return MultiPushHandle(self)

    def explain(self) -> str:
        parts = [h.describe() for h in self.hpdts]
        shape = self.index.stats()
        parts.append(
            "shared dispatch: %d queries, %d tag buckets, "
            "%d greedy, max fanout %d"
            % (shape["queries"], shape["buckets"], shape["greedy"],
               shape["max_bucket"]))
        parts.append("\n".join(self.member_selection_notes()))
        return "\n\n".join(parts)

    def __repr__(self):
        return "<UnionEngine %d branches>" % len(self.queries)


def _record_selection(obs, engine_name: str, mode: str,
                      reason: Optional[str] = None) -> None:
    """Export the selection decision to the metrics registry.

    ``mode`` is ``selected`` (auto picked the fast path), ``fallback``
    (auto wanted the fast path but could not use it) or ``forced`` (the
    caller named an engine).  On fallback the first unsupported
    feature's slug is counted separately so dashboards can see *why*
    streams run interpreted.
    """
    if obs is None:
        return
    obs.metrics.counter(
        "repro_engine_selection_total",
        "engine chosen at compile time, by selection mode",
        engine=engine_name, fastpath=mode).inc()
    if reason is not None:
        obs.metrics.counter(
            "repro_fastpath_fallback_total",
            "auto-selection fell back from the compiled fast path, "
            "by first unsupported feature",
            reason=reason).inc()


def select_engine(query: QueryLike, choice: str = "auto", obs=None,
                  cache=None, schema=None):
    """The raw engine :func:`compile` would wrap for ``query``.

    Applies the reverse-axis rewrite, detects top-level unions, and —
    with ``choice="auto"`` — prefers the compiled fast path
    (:class:`~repro.xsq.fastpath.XSQEngineFast`), falling back to
    XSQ-NC and then XSQ-F when the query needs features the faster
    engines lack.  The fast path always runs a generated kernel
    (:mod:`repro.xsq.codegen`), so the tier order is fast → nc → f.  A
    fallback is never silent: the chosen engine's ``explain()`` carries
    a ``fast path not selected: <reason>`` line and the decision is
    counted in ``repro_engine_selection_total`` /
    ``repro_fastpath_fallback_total``.  Returns an
    :class:`~repro.xsq.fastpath.XSQEngineFast`, :class:`XSQEngine`,
    :class:`XSQEngineNC`, :class:`UnionEngine` or :class:`EmptyEngine`.

    ``schema`` attaches a DTD (a parsed
    :class:`~repro.streaming.dtd.Dtd`, DTD text, a path, or a
    :class:`~repro.xsq.schema_compile.CompiledSchema`): the AST-level
    rewrites (:mod:`repro.xsq.schema_opt` — emptiness, guaranteed
    predicates, closure expansion) run first, then the selected engine
    compiles schema-aware (transition pruning, eager resolution, static
    no-buffer allocation).  Selection itself considers the *optimized*
    plan — a closure query whose schema expansion is a single child
    path goes to the fast tiers instead of XSQ-F.  ``schema=None``
    (the default) never imports the schema compiler.
    """
    if choice not in ("auto", "f", "nc", "fast"):
        raise ValueError("engine must be 'auto', 'f', 'nc' or 'fast', "
                         "not %r" % (choice,))
    if schema is not None:
        from repro.xsq.schema_compile import coerce_schema
        schema = coerce_schema(schema)
    if isinstance(query, str) and supports_reverse_axes(query):
        rewritten = rewrite_reverse_axes(query)
        if rewritten is None:
            return EmptyEngine(output=trailing_output(query))
        query = rewritten
    if isinstance(query, str):
        from repro.xpath.parser import parse_query_set
        branches = parse_query_set(query)
        if len(branches) > 1:
            if choice == "fast":
                raise FastPathUnsupportedError(
                    "the fast path runs single queries; a top-level "
                    "union compiles to grouped runtimes",
                    reason="union")
            if schema is not None:
                from repro.xsq import schema_opt
                kept = []
                for branch in branches:
                    plan = schema_opt.optimize(schema.dtd, branch)
                    if plan.empty:
                        continue
                    kept.append(plan.queries[0]
                                if len(plan.queries) == 1 else branch)
                if not kept:
                    return EmptyEngine(
                        "every union branch is statically empty under "
                        "the attached DTD")
                branches = kept
            return UnionEngine(branches, obs=obs, cache=cache)
    schema_plan = None
    if schema is not None:
        from repro.xsq import schema_opt
        schema_plan = schema_opt.optimize(schema.dtd, query)
        if schema_plan.empty:
            engine = EmptyEngine(
                "statically empty under the attached DTD"
                + ("".join("; " + note for note in schema_plan.notes)),
                output=schema_plan.original.output)
            engine.schema_plan = schema_plan
            return engine
        if schema_plan.is_union and choice == "auto" \
                and not isinstance(schema_plan.original.output,
                                   AggregateOutput):
            # Closure expansion produced several child-axis paths:
            # grouped one-pass execution with document-order merge.
            engine = UnionEngine(schema_plan.queries, obs=obs,
                                 cache=cache)
            engine.schema_plan = schema_plan
            return engine
        if not schema_plan.is_union:
            query = schema_plan.queries[0]
        # Union plans under a forced choice (or aggregate output, whose
        # union cannot be order-merged) run the original query with the
        # schema-aware runtime only.
    if choice == "f":
        engine = XSQEngine(query, obs=obs, cache=cache, schema=schema)
        _record_selection(obs, engine.name, "forced")
        return engine
    if choice == "nc":
        engine = XSQEngineNC(query, obs=obs, cache=cache, schema=schema)
        _record_selection(obs, engine.name, "forced")
        return engine
    if choice == "fast":
        engine = XSQEngineFast(query, obs=obs, cache=cache, schema=schema)
        _record_selection(obs, engine.name, "forced")
        return engine
    # auto: compiled fast path when supported, else the deterministic
    # interpreted runtime, else full XSQ-F.
    try:
        engine = XSQEngineFast(query, obs=obs, cache=cache, schema=schema)
        _record_selection(obs, engine.name, "selected")
        return engine
    except FastPathUnsupportedError as exc:
        reason = exc.reason
        note = "fast path not selected: %s (%s)" % (exc.reason, exc)
    try:
        engine = XSQEngineNC(query, obs=obs, cache=cache, schema=schema)
    except ClosureNotSupportedError:
        engine = XSQEngine(query, obs=obs, cache=cache, schema=schema)
    engine.selection_note = note
    _record_selection(obs, engine.name, "fallback", reason=reason)
    return engine


class PushSession:
    """One document fed incrementally through a compiled query (or set).

    The push-mode inverse of :meth:`CompiledQuery.run`: the caller owns
    the input loop and hands over raw chunks (``feed``) or pre-built
    events (``feed_events``) as they arrive — a socket, a tail, a
    message bus — and each call returns the results those bytes
    determined under the paper's buffering discipline.  No EOF is
    needed until ``finish()``, and the concatenation of every call's
    results is byte-identical to ``run()`` over the same document, for
    any chunking (``tests/test_push_equivalence.py``).

    A session is single-document and single-representation: the first
    call fixes chunk mode or event mode, and ``finish()`` closes it.
    Chunks may be ``str`` or ``bytes`` and may split the document
    anywhere — mid-tag, mid-entity, mid-CDATA; the resumable expat
    parser (:mod:`repro.streaming.push`) buffers the partial state.
    For a :class:`CompiledQuerySet` the results are
    ``(query_index, value)`` pairs; for a single query, values.
    """

    def __init__(self, handle):
        self._handle = handle
        self._parser = None
        self._feed_parsed = None
        self._mode: Optional[str] = None
        self.closed = False

    @property
    def events_fed(self) -> int:
        """Stream events consumed so far (chunk feeds count parsed events)."""
        return self._handle.events_fed

    def _open_chunk_parser(self) -> None:
        feed_mode = self._handle.feed_mode
        if feed_mode == "batch":
            from repro.streaming.push import PushBatchParser
            self._parser = PushBatchParser(self._handle.tags)
            self._feed_parsed = self._handle.feed_batch
        elif feed_mode == "events":
            from repro.streaming.push import PushEventParser
            self._parser = PushEventParser()
            self._feed_parsed = self._handle.feed_events
        # feed_mode == "none" (empty-rewritten query): chunks are
        # accepted and discarded unparsed, matching run()'s behaviour
        # of never touching the source.

    def feed(self, chunk) -> list:
        """Parse one raw chunk; return the results it determined."""
        if self.closed:
            raise StreamError("push session already finished")
        if self._mode is None:
            self._mode = "chunks"
            self._open_chunk_parser()
        elif self._mode != "chunks":
            raise StreamError("this session was fed events; a push "
                              "session cannot mix feed() and "
                              "feed_events()")
        if self._parser is None:
            return []
        return self._feed_parsed(self._parser.feed(chunk))

    def feed_events(self, events) -> list:
        """Feed pre-built events; return the results they determined."""
        if self.closed:
            raise StreamError("push session already finished")
        if self._mode is None:
            self._mode = "events"
        elif self._mode != "events":
            raise StreamError("this session was fed raw chunks; a push "
                              "session cannot mix feed() and "
                              "feed_events()")
        return self._handle.feed_events(events)

    def finish(self) -> list:
        """End the document; return the tail results and close."""
        if self.closed:
            return []
        self.closed = True
        out: list = []
        if self._parser is not None:
            out.extend(self._feed_parsed(self._parser.finish()))
        out.extend(self._handle.finish())
        return out

    def __repr__(self):
        state = "closed" if self.closed else (self._mode or "fresh")
        return "<PushSession %s>" % state


class CompiledQuery:
    """One compiled query with a uniform run/iterate/stats surface.

    Construct via :func:`compile`.  The underlying engine object stays
    reachable as :attr:`engine` for anything engine-specific.
    """

    def __init__(self, query: QueryLike, engine: str = "auto", obs=None,
                 cache=None, schema=None):
        self.text = query if isinstance(query, str) else (query.text or "")
        self.obs = obs
        # Kept for run_bulk: workers re-run the same selection on the
        # *original* spec, so per-worker engines match this one.
        # run_bulk itself re-selects without the schema — the schema
        # only changes how results are computed, never what they are,
        # so sharded corpora total identically.
        self.engine_choice = engine
        self._bulk_spec = query
        self.schema = schema
        self._push_session: Optional[PushSession] = None
        self.engine = select_engine(query, engine, obs=obs, cache=cache,
                                    schema=schema)

    @property
    def engine_name(self) -> str:
        """Which engine compilation selected (xsq-f, xsq-nc, ...)."""
        return self.engine.name

    @property
    def query(self) -> Optional[Query]:
        """The parsed query (None for empty-rewritten queries)."""
        return getattr(self.engine, "query", None)

    def run(self, source, sink=None) -> List[str]:
        """Evaluate over ``source``; all engines accept the same call."""
        return self.engine.run(source, sink=sink)

    def iter_results(self, source) -> Iterator[str]:
        """Yield results incrementally where the engine supports it."""
        return self.engine.iter_results(source)

    def push(self, streaming_agg: bool = False) -> PushSession:
        """Open an explicit :class:`PushSession` for one document.

        With ``streaming_agg=True`` aggregate queries return
        intermediate values from each feed (the :meth:`iter_results`
        shape) instead of only the final value at ``finish()``.  The
        session also becomes the implicit one, so subsequent
        :meth:`feed` / :meth:`finish` calls on the query address it.
        """
        self._push_session = PushSession(
            self.engine.push(streaming_agg=streaming_agg))
        return self._push_session

    def feed(self, chunk) -> List[str]:
        """Feed one raw chunk of the current document; return results.

        Convenience over :meth:`push`: the first ``feed`` after
        construction (or after :meth:`finish`) opens an implicit
        session.  ``chunk`` is ``str`` or ``bytes`` and may split the
        document anywhere.
        """
        if self._push_session is None or self._push_session.closed:
            self._push_session = self.push()
        return self._push_session.feed(chunk)

    def feed_events(self, events) -> List[str]:
        """Feed pre-built events into the implicit push session."""
        if self._push_session is None or self._push_session.closed:
            self._push_session = self.push()
        return self._push_session.feed_events(events)

    def finish(self) -> List[str]:
        """End the implicitly-fed document; return the tail results."""
        if self._push_session is None:
            return []
        session, self._push_session = self._push_session, None
        return session.finish()

    def run_bulk(self, sources, *, workers: Optional[int] = None, **kwargs):
        """Evaluate over a whole corpus, sharded across worker processes.

        ``sources`` is any iterable of paths / XML text / bytes /
        readable streams; returns a
        :class:`~repro.parallel.bulk.BulkResult` yielding per-document
        results in submission order, identical to looping :meth:`run`.
        See :func:`repro.parallel.run_bulk` for the keyword options.
        """
        from repro.parallel.bulk import run_bulk
        kwargs.setdefault("obs", self.obs)
        return run_bulk(self._bulk_spec, sources, workers=workers,
                        engine=self.engine_choice, **kwargs)

    @property
    def stats(self) -> Optional[RunStats]:
        """Uniform :class:`RunStats` from the most recent run."""
        return self.engine.stats

    def profile(self, source, sample_interval: Optional[int] = None):
        """EXPLAIN ANALYZE: one measured evaluation over ``source``.

        Runs the query under the execution profiler
        (:mod:`repro.obs.profile`) with the same engine selection as
        this compiled query, and returns a
        :class:`~repro.obs.profile.ProfileReport` — per-phase wall
        times (parse/automaton/predicate/buffer/output), hot HPDT
        states and tags, folded stacks and the paper's Fig 18 split.
        This is a measurement pass: results are discarded, ``.stats``
        is untouched, and the engine's fast path (when selected) is
        profiled by batch-level timing plus per-event *sampling*.
        """
        from repro.obs.profile import DEFAULT_SAMPLE_INTERVAL, profile_query
        return profile_query(
            self._bulk_spec, source, engine=self.engine_choice,
            sample_interval=(sample_interval if sample_interval
                             else DEFAULT_SAMPLE_INTERVAL))

    @property
    def audit_violations(self) -> list:
        """Buffer-audit violations so far (``compile(..., audit=True)``)."""
        return self.obs.audit_violations if self.obs is not None else []

    def explain(self) -> str:
        return self.engine.explain()

    def __repr__(self):
        return "<CompiledQuery %r engine=%s>" % (self.text, self.engine.name)


class CompiledQuerySet:
    """Many queries compiled for grouped one-pass evaluation.

    Construct via :func:`compile` with a list of queries.  ``run``
    returns per-query result lists; ``iter_results`` interleaves
    ``(query_index, value)`` pairs in stream order; ``stats`` is the
    aggregate with per-query breakdowns on ``per_query_stats``.
    """

    def __init__(self, queries: Sequence[QueryLike], obs=None, cache=None,
                 schema=None):
        self.obs = obs
        self._bulk_spec = list(queries)
        self._push_session: Optional[PushSession] = None
        self.schema = None
        self.schema_notes: Optional[List[str]] = None
        if schema is not None:
            # AST-level schema rewrites per member: a member whose plan
            # simplifies to one query runs the simplified form; empty
            # or union plans keep the original (sound, index-stable —
            # every member keeps its result slot).
            from repro.xsq import schema_opt
            from repro.xsq.schema_compile import coerce_schema
            self.schema = coerce_schema(schema)
            notes: List[str] = []
            simplified = []
            for member in queries:
                plan = schema_opt.optimize(self.schema.dtd, member)
                if not plan.empty and len(plan.queries) == 1:
                    simplified.append(plan.queries[0])
                else:
                    simplified.append(plan.original)
                notes.extend(plan.notes)
            queries = simplified
            self.schema_notes = notes
        self.engine = MultiQueryEngine(queries, obs=obs, cache=cache)

    @property
    def engine_name(self) -> str:
        return self.engine.name

    @property
    def queries(self) -> List[Query]:
        return self.engine.queries

    def __len__(self) -> int:
        return self.engine.query_count

    def run(self, source, sinks=None) -> List[List[str]]:
        return self.engine.run(source, sinks=sinks)

    def iter_results(self, source) -> Iterator[Tuple[int, object]]:
        return self.engine.iter_results(source)

    def push(self) -> PushSession:
        """Open an explicit :class:`PushSession` over all member queries.

        Feeds return ``(query_index, value)`` pairs in stream order
        (the :meth:`iter_results` shape); aggregate members surface
        their final value at ``finish()``.  The session also becomes
        the implicit one addressed by :meth:`feed` / :meth:`finish`.
        """
        self._push_session = PushSession(self.engine.push())
        return self._push_session

    def feed(self, chunk) -> List[Tuple[int, object]]:
        """Feed one raw chunk; return ``(query_index, value)`` pairs."""
        if self._push_session is None or self._push_session.closed:
            self._push_session = self.push()
        return self._push_session.feed(chunk)

    def feed_events(self, events) -> List[Tuple[int, object]]:
        """Feed pre-built events into the implicit push session."""
        if self._push_session is None or self._push_session.closed:
            self._push_session = self.push()
        return self._push_session.feed_events(events)

    def finish(self) -> List[Tuple[int, object]]:
        """End the implicitly-fed document; return the tail pairs."""
        if self._push_session is None:
            return []
        session, self._push_session = self._push_session, None
        return session.finish()

    def run_bulk(self, sources, *, workers: Optional[int] = None, **kwargs):
        """Grouped evaluation over a corpus, sharded across workers.

        Each yielded :class:`~repro.parallel.bulk.DocumentResult`
        carries per-query result lists (the shape :meth:`run` returns),
        in submission order.  See :func:`repro.parallel.run_bulk`.
        """
        from repro.parallel.bulk import run_bulk
        kwargs.setdefault("obs", self.obs)
        return run_bulk(self._bulk_spec, sources, workers=workers, **kwargs)

    @property
    def stats(self) -> Optional[RunStats]:
        return self.engine.stats

    def profile(self, source, sample_interval: Optional[int] = None):
        """EXPLAIN ANALYZE for the grouped run; per-query attribution.

        See :meth:`CompiledQuery.profile`; the report's ``queries``
        table splits dispatch time across the set's members.
        """
        from repro.obs.profile import DEFAULT_SAMPLE_INTERVAL, profile_query
        return profile_query(
            list(self._bulk_spec), source, engine="auto",
            sample_interval=(sample_interval if sample_interval
                             else DEFAULT_SAMPLE_INTERVAL))

    @property
    def per_query_stats(self) -> Optional[List[RunStats]]:
        return self.engine.last_stats

    @property
    def audit_violations(self) -> list:
        """Buffer-audit violations so far (``compile(..., audit=True)``)."""
        return self.obs.audit_violations if self.obs is not None else []

    def explain(self) -> str:
        return "\n".join([self.engine.index.describe(), ""]
                         + self.engine.member_selection_notes())

    def __repr__(self):
        return "<CompiledQuerySet %d queries>" % len(self)


def compile(query, *, engine: str = "auto", obs=None, cache=None,
            audit: bool = False, schema=None):
    """Compile ``query`` into a ready-to-run object.

    ``query`` may be a query string, a parsed
    :class:`~repro.xpath.ast.Query`, or a sequence of either — the
    sequence form returns a :class:`CompiledQuerySet` evaluating every
    member in one pass over the stream (shared tokenization *and*
    shared event dispatch).

    ``engine`` selects the single-query engine: ``"auto"`` (default:
    fast → nc → f), ``"fast"`` (the generated-kernel tier), ``"nc"`` or
    ``"f"``.  ``obs`` attaches an
    :class:`~repro.obs.Observability` bundle; ``cache`` scopes or
    disables the HPDT compile cache.

    ``schema`` attaches a DTD (parsed
    :class:`~repro.streaming.dtd.Dtd`, DTD text, or a path to a
    ``.dtd`` file) as an *optimizer input*: schema-impossible queries
    compile to an empty engine, schema-guaranteed predicates are
    dropped, closures expand on non-recursive DTDs, and the selected
    engine compiles with transition pruning, eager predicate
    resolution, and static buffer elimination (see
    ``docs/PERFORMANCE.md``).  Results on schema-valid documents are
    identical with and without it; on invalid documents behaviour is
    undefined (validate with ``xsq run --dtd`` when in doubt).

    ``audit=True`` turns on the buffer auditor
    (:class:`~repro.obs.accounting.BufferAuditor`): every run checks
    the paper's necessary-buffering discipline online, and violations
    surface on ``.audit_violations`` (and in the bundle's metrics as
    ``repro_buffer_audit_violations_total``).  An ``obs`` bundle is
    created when none was passed.

    >>> import repro
    >>> repro.compile("/pub/year/text()").run("<pub><year>2</year></pub>")
    ['2']
    >>> repro.compile("/r/a/text() | /r/b/text()").run(
    ...     "<r><b>2</b><a>1</a></r>")
    ['2', '1']
    """
    if audit:
        if obs is None:
            from repro.obs import Observability
            obs = Observability(spans=False, events=False, audit=True)
        else:
            obs.enable_audit()
    if isinstance(query, (str, Query)):
        return CompiledQuery(query, engine=engine, obs=obs, cache=cache,
                             schema=schema)
    if engine != "auto":
        raise ValueError(
            "engine=%r cannot apply to a query set: grouped execution "
            "chooses per member, running its generated kernel or XSQ-F"
            % (engine,))
    return CompiledQuerySet(query, obs=obs, cache=cache, schema=schema)
