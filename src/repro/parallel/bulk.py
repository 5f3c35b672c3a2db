"""Bulk query execution: shard a corpus of documents across workers.

:func:`run_bulk` is the front door.  It takes the same query forms as
:func:`repro.compile` (one query string / parsed query, or a sequence
for grouped evaluation) and a corpus of XML *sources* — file paths,
XML text, byte blobs, or readable streams — and evaluates the compiled
query over every document, sharded across worker processes by
:class:`~repro.parallel.pool.TaskPool`.

Every worker compiles once at startup (pre-warming its process-local
HPDT compile cache and, on the fast path, the lowered
:class:`~repro.xsq.fastpath.FastPlan`) and then reuses that engine for
every document it pulls — the per-document cost is evaluation alone.
Engine selection inside the worker is exactly the serial facade's
(fast → nc → f for ``engine="auto"``, unions grouped, query sets on
shared dispatch), so sharded output is the serial output:
:class:`BulkResult` yields one :class:`DocumentResult` per source *in
submission order* with results identical to ``engine.run`` on that
document, and :attr:`BulkResult.stats` totals per-document
:class:`~repro.xsq.engine.RunStats` with an order-independent fold —
byte-identical to ``workers=1``, which runs serially in-process.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, Optional

from repro.errors import StreamError, TaskFailedError
from repro.parallel.pool import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MAX_INFLIGHT_BYTES,
    Task,
    TaskPool,
)
from repro.xsq.engine import RunStats


class QueryRunnerSpec:
    """Per-worker runner: compile the query set once, evaluate many docs.

    Picklable by construction — it carries only the query specification
    (strings or parsed :class:`~repro.xpath.ast.Query` objects, both
    picklable), never a compiled engine; each worker compiles in
    ``setup`` through its own process-local compile cache.
    """

    #: The pool may pass a worker-local Observability bundle to
    #: ``setup`` — engine compile spans then nest under the worker's
    #: own ``bulk-worker`` span and ship back for cross-process
    #: stitching.
    accepts_obs = True

    def __init__(self, queries, engine: str = "auto",
                 shared_dispatch: bool = True):
        self.queries = queries
        self.engine = engine
        self.shared_dispatch = shared_dispatch

    def setup(self, worker_id: int, obs=None):
        # Imports stay inside setup so a spawned worker pays them once
        # and the parent-side module import graph stays acyclic.
        from repro.xpath.ast import Query

        if isinstance(self.queries, (str, Query)):
            from repro.api import select_engine
            engine = select_engine(self.queries, self.engine, obs=obs)
        else:
            from repro.xsq.multiquery import MultiQueryEngine
            engine = MultiQueryEngine(
                list(self.queries), shared_dispatch=self.shared_dispatch,
                obs=obs)

        def run(payload):
            results = engine.run(_payload_source(payload))
            stats = engine.stats
            return results, (stats.as_dict() if stats is not None else None)

        return run


def _payload_source(payload):
    """Reverse :func:`normalize_source`: payload tuple → engine source."""
    kind, data = payload
    if kind == "path" and not os.path.exists(data):
        raise StreamError("bulk source does not exist: %r" % data)
    return data  # a path, or the document's list of raw chunks


def normalize_source(source, index: int):
    """One corpus entry → (payload, label, byte cost).

    Classification is :func:`repro.streaming.coerce_source`'s, so bulk
    accepts exactly what the serial engines accept — path, XML text,
    bytes, a file-like object, or an iterable of raw chunks — minus
    pre-built event iterables (a worker needs the raw document, and
    events already dropped whitespace).  A path ships as its name.
    Every other source is materialized *in the parent* (a worker
    cannot inherit an open handle portably) as the list of its
    :meth:`~repro.streaming.source.CoercedSource.chunks`, which the
    worker parses exactly as a serial run would: text stays text.  It
    pays its bytes through the task queue; prefer paths for large
    corpora.
    """
    from repro.streaming.source import EVENTS, coerce_source

    try:
        coerced = coerce_source(source)
    except StreamError:
        raise StreamError("unsupported bulk source type at #%d: %r"
                          % (index, type(source)))
    if coerced.kind == EVENTS:
        raise StreamError(
            "bulk source #%d is an event iterable; bulk workers need "
            "replayable bytes — pass a path, XML text, bytes, a "
            "file-like object, or an iterable of raw chunks" % index)
    path = coerced.path
    if path is not None:
        if not os.path.exists(path):
            raise StreamError(
                "bulk source #%d is neither XML text nor an existing "
                "file: %r" % (index, path[:80]))
        try:
            cost = os.path.getsize(path)
        except OSError:
            cost = 1
        return ("path", path), path, max(1, cost)
    chunks = list(coerced.chunks())
    label = getattr(source, "name", None)
    if not isinstance(label, str):
        label = ("<stream #%d>" if hasattr(source, "read")
                 else "<doc #%d>") % index
    return (("chunks", chunks), label,
            max(1, sum(len(chunk) for chunk in chunks)))


class DocumentResult:
    """One document's outcome, yielded in submission order.

    ``results`` is what the serial engine's ``run`` returns for this
    document (a value list, or per-query lists for a query set);
    ``stats`` that run's :class:`~repro.xsq.engine.RunStats`.  When the
    document failed and the run used ``on_error="skip"``, ``error``
    carries the structured :class:`~repro.errors.TaskFailedError` and
    ``results`` is ``None``.
    """

    __slots__ = ("index", "source", "results", "stats", "error")

    def __init__(self, index: int, source: str, results=None,
                 stats: Optional[RunStats] = None,
                 error: Optional[TaskFailedError] = None):
        self.index = index
        self.source = source
        self.results = results
        self.stats = stats
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self):
        if self.error is not None:
            return "<DocumentResult #%d %s FAILED>" % (self.index,
                                                       self.source)
        return "<DocumentResult #%d %s (%d results)>" % (
            self.index, self.source,
            len(self.results) if self.results is not None else 0)


class BulkResult:
    """Ordered stream of :class:`DocumentResult` plus aggregates.

    Iterate it (once) to stream documents as the ordered merge releases
    them; or call :meth:`results` to drain everything and get the plain
    per-document result lists.  After exhaustion:

    * :attr:`stats` — aggregated :class:`~repro.xsq.engine.RunStats`
      (counters summed over documents, peaks maxed), identical for any
      worker count;
    * :attr:`errors` — the skipped failures (``on_error="skip"``);
    * :attr:`worker_stats` — per-worker ``{chunks, docs, busy_seconds}``.
    """

    def __init__(self, outcomes: Iterator, pool: TaskPool, on_error: str):
        self._outcomes = outcomes
        self._pool = pool
        self._on_error = on_error
        self._stats_parts: List[dict] = []
        self.documents = 0
        self.errors: List[TaskFailedError] = []
        self.exhausted = False

    def __iter__(self) -> Iterator[DocumentResult]:
        for outcome in self._outcomes:
            if outcome.error is not None:
                if self._on_error == "raise":
                    # Shut the pool down *now*: an abandoned generator
                    # would only be finalized at GC time, and a fork in
                    # between would hand live worker handles to a child.
                    close = getattr(self._outcomes, "close", None)
                    if close is not None:
                        close()
                    raise outcome.error
                self.errors.append(outcome.error)
                yield DocumentResult(outcome.index, outcome.label,
                                     error=outcome.error)
                continue
            self.documents += 1
            if outcome.stats is not None:
                self._stats_parts.append(outcome.stats)
            yield DocumentResult(
                outcome.index, outcome.label, outcome.result,
                stats=(RunStats(**outcome.stats)
                       if outcome.stats is not None else None))
        self.exhausted = True

    def results(self) -> List:
        """Drain the run; per-document result lists in submission order."""
        return [document.results for document in self]

    @property
    def stats(self) -> RunStats:
        """Aggregated RunStats over the documents consumed so far."""
        return RunStats.totals(self._stats_parts)

    @property
    def worker_stats(self) -> dict:
        return dict(self._pool.worker_summaries)

    def __repr__(self):
        return "<BulkResult %d documents%s>" % (
            self.documents, "" if self.exhausted else " (running)")


def run_bulk(queries, sources: Iterable, *, workers: Optional[int] = None,
             engine: str = "auto", shared_dispatch: bool = True,
             chunk_size: int = DEFAULT_CHUNK_SIZE,
             chunk_bytes: int = DEFAULT_CHUNK_BYTES,
             max_inflight_bytes: int = DEFAULT_MAX_INFLIGHT_BYTES,
             obs=None, on_error: str = "raise",
             start_method: Optional[str] = None) -> BulkResult:
    """Evaluate ``queries`` over every document in ``sources``, sharded.

    ``queries`` and ``engine`` take the :func:`repro.compile` forms; a
    sequence of queries runs grouped (shared dispatch) in every worker.
    ``sources`` is any iterable of paths / XML text / bytes / readable
    streams; it is consumed lazily under byte-based backpressure
    (``max_inflight_bytes``), so a generator over a huge corpus never
    materializes.  ``workers=None`` uses ``os.cpu_count()``;
    ``workers<=1`` runs serially in-process (the differential baseline —
    same code path, no processes).  ``on_error="raise"`` (default)
    raises the first :class:`~repro.errors.TaskFailedError`;
    ``"skip"`` records failures on :attr:`BulkResult.errors` and keeps
    going.  ``obs`` (parent-side) records the ``repro_parallel_*``
    metric family and the bulk-run/worker spans; workers themselves run
    un-instrumented (per-event observability needs a serial run).

    >>> from repro.parallel import run_bulk
    >>> docs = ["<pub><year>%d</year></pub>" % y for y in (2001, 2002)]
    >>> run_bulk("/pub/year/text()", docs, workers=1).results()
    [['2001'], ['2002']]
    """
    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip', not %r"
                         % (on_error,))
    sources = iter(sources)
    if obs is not None:
        bytes_counter = obs.metrics.counter(
            "repro_parallel_bytes_total",
            "source payload bytes submitted to bulk runs")

        def tasks_iter():
            for index, source in enumerate(sources):
                task = Task(*normalize_source(source, index))
                bytes_counter.inc(task.cost)
                yield task

        tasks = tasks_iter()
    else:
        tasks = (Task(*normalize_source(source, index))
                 for index, source in enumerate(sources))
    spec = QueryRunnerSpec(queries, engine=engine,
                           shared_dispatch=shared_dispatch)
    pool = TaskPool(spec, workers=workers, chunk_size=chunk_size,
                    chunk_bytes=chunk_bytes,
                    max_inflight_bytes=max_inflight_bytes, obs=obs,
                    start_method=start_method)
    outcomes = pool.run(tasks)
    if obs is not None:
        outcomes = _observed(outcomes, obs)
    return BulkResult(outcomes, pool, on_error)


def _observed(outcomes, obs):
    """Parent-side per-document accounting around the merge point."""
    docs_counter = obs.metrics.counter(
        "repro_parallel_docs_total", "documents merged out of bulk runs")
    stats_parts: List[dict] = []
    for outcome in outcomes:
        if outcome.error is None:
            docs_counter.inc()
            if outcome.stats is not None:
                stats_parts.append(outcome.stats)
        yield outcome
    if stats_parts:
        obs.record_run("parallel-bulk", RunStats.totals(stats_parts))
