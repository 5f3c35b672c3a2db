"""The sharded worker pool: chunked task queue, backpressure, ordered
merge.

:class:`TaskPool` is deliberately generic — it knows nothing about XML
or queries.  A :class:`RunnerSpec` (any picklable object with a
``setup(worker_id)`` method returning a ``run(payload)`` callable) is
shipped to every worker process once; tasks are then distributed in
small chunks through one shared queue, so an idle worker always steals
the next chunk regardless of how unevenly earlier chunks were sized —
the "work-stealing via small chunk sizes" discipline.  Results flow
back tagged with their submission sequence number and the parent
re-emits them in submission order, which is what makes pool output
indistinguishable from a serial loop.

Flow control is byte-based, not task-based: the parent stops submitting
chunks while ``max_inflight_bytes`` worth of payloads are unfinished,
so a corpus of large documents cannot balloon the task queue or the
reorder buffer.  The result queue is unbounded (workers never block
sending results), which makes the submission side safe to block.

Failure semantics: an exception *inside* a task is reported per task
(``("doc-error", ...)``) and the pool keeps running — the caller decides
whether to raise or collect.  A worker process that dies without
reporting (segfault, ``os._exit``, OOM-kill) is detected by liveness
polling and surfaces as :class:`~repro.errors.WorkerCrashError` naming
the chunk's first unfinished source, instead of hanging the merge.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import TaskFailedError, WorkerCrashError

#: Tasks per chunk: small enough that stragglers rebalance, large
#: enough that queue traffic amortizes.
DEFAULT_CHUNK_SIZE = 4

#: A chunk closes early once its payloads reach this many bytes, so one
#: huge document never rides in a chunk with three more behind it.
DEFAULT_CHUNK_BYTES = 1 << 20

#: Submission pauses while this many payload bytes are unfinished.
DEFAULT_MAX_INFLIGHT_BYTES = 64 << 20

#: Per-document ``bulk-doc`` spans recorded per worker before the tree
#: stops growing — bounds the span payload shipped back through the
#: result queue on huge corpora (the root span still counts every doc).
WORKER_DOC_SPAN_LIMIT = 64


class RunnerSpec:
    """Protocol for the per-worker runner (duck-typed, not enforced).

    ``setup(worker_id)`` runs once per worker process and returns a
    callable ``run(payload) -> (result, stats_dict_or_None)``.  The spec
    instance must be picklable under the ``spawn`` start method; under
    ``fork`` it is inherited.
    """

    def setup(self, worker_id: int):  # pragma: no cover - protocol doc
        raise NotImplementedError


class Task:
    """One unit of work: an opaque payload with a label and a byte cost."""

    __slots__ = ("payload", "label", "cost")

    def __init__(self, payload, label: str, cost: int = 1):
        self.payload = payload
        self.label = label
        self.cost = cost


class TaskOutcome:
    """What the pool yields: one task's result (or error), in order."""

    __slots__ = ("index", "label", "result", "stats", "error")

    def __init__(self, index: int, label: str, result=None, stats=None,
                 error: Optional[TaskFailedError] = None):
        self.index = index
        self.label = label
        self.result = result
        self.stats = stats
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None


def _worker_main(worker_id: int, spec, task_queue, result_queue,
                 observe: bool = False) -> None:
    """Worker process body: set up once, then drain chunks until the
    ``None`` sentinel.  Every exit path sends a message — the parent
    never has to guess what a silent worker was doing.

    With ``observe`` the worker records its own span tree (a real
    ``bulk-worker`` root timing the whole lifecycle, engine compile
    spans from setup nested inside, one ``bulk-doc`` span per evaluated
    document up to :data:`WORKER_DOC_SPAN_LIMIT`) plus a metrics delta,
    and ships both in the ``done`` summary together with a paired
    (perf, wall) clock sample so the parent can graft the tree onto its
    own timeline with the clock-domain offset corrected.
    """
    wobs = root = None
    if observe:
        # Spans + metrics only: events/accounting instrumentation would
        # change fastpath eligibility and break the serial differential.
        from repro.obs import Observability
        wobs = Observability(spans=True, metrics=True, events=False)
        root = wobs.tracer.span("bulk-worker", worker=worker_id)
        root.__enter__()
    try:
        if wobs is not None and getattr(spec, "accepts_obs", False):
            run = spec.setup(worker_id, obs=wobs)
        else:
            run = spec.setup(worker_id)
    except BaseException as exc:  # noqa: BLE001 - must cross the process
        result_queue.put(("fatal", worker_id, type(exc).__name__, str(exc),
                          traceback.format_exc()))
        return
    chunks = 0
    docs = 0
    busy = 0.0
    clock = time.perf_counter
    while True:
        chunk = task_queue.get()
        if chunk is None:
            summary = {"chunks": chunks, "docs": docs,
                       "busy_seconds": busy}
            if wobs is not None:
                attrs = root.attrs
                attrs["docs"] = docs
                attrs["chunks"] = chunks
                attrs["busy_seconds"] = round(busy, 6)
                root.__exit__(None, None, None)
                summary["spans"] = root.to_payload()
                summary["metrics"] = wobs.metrics.dump_state()
                summary["clock"] = {"perf": clock(),
                                    "wall": time.time()}
            result_queue.put(("done", worker_id, summary))
            return
        chunk_id, items = chunk
        result_queue.put(("taken", worker_id, chunk_id))
        chunks += 1
        for seq, payload, label in items:
            doc_span = None
            if wobs is not None:
                doc_span = wobs.tracer.span("bulk-doc", label=label)
                doc_span.__enter__()
            started = clock()
            try:
                result, stats = run(payload)
            except BaseException as exc:  # noqa: BLE001
                busy += clock() - started
                if doc_span is not None:
                    doc_span.attrs["error"] = type(exc).__name__
                    doc_span.__exit__(None, None, None)
                    _trim_doc_spans(root, wobs.tracer)
                result_queue.put(("doc-error", worker_id, chunk_id, seq,
                                  label, type(exc).__name__, str(exc),
                                  traceback.format_exc()))
                continue
            busy += clock() - started
            docs += 1
            if doc_span is not None:
                doc_span.__exit__(None, None, None)
                _trim_doc_spans(root, wobs.tracer)
            result_queue.put(("doc", worker_id, chunk_id, seq, label,
                              result, stats))


def _trim_doc_spans(root, tracer) -> None:
    """Bound the worker's span tree: every document is *timed* (the
    enter/exit cost is what the busy clock already pays), but only the
    first :data:`WORKER_DOC_SPAN_LIMIT` ``bulk-doc`` subtrees are kept
    for the payload shipped back to the parent.  The ``finished`` list
    is cleared alongside — workers never export it; the parent rebuilds
    its own on graft."""
    if len(root.children) > WORKER_DOC_SPAN_LIMIT:
        root.children.pop()
        root.attrs["doc_spans_truncated"] = True
        del tracer.finished[:]


class TaskPool:
    """Process pool with ordered merge; see the module docstring.

    ``workers=1`` (and ``workers=0``) short-circuits to an in-process
    serial loop through the *same* spec/setup/outcome code path — that
    is the baseline parallel runs are differentially tested against, and
    it pays no fork, pickle, or queue cost.

    ``obs`` (an :class:`repro.obs.Observability` bundle, parent-side
    only) records the ``repro_parallel_*`` metric family: worker count,
    queue depth and in-flight byte high-water marks, per-worker chunk
    ("steal") and document counters, and a span per worker lifecycle
    under the enclosing ``bulk-run`` span.
    """

    def __init__(self, spec, workers: Optional[int] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 max_inflight_bytes: int = DEFAULT_MAX_INFLIGHT_BYTES,
                 obs=None, poll_interval: float = 0.1,
                 start_method: Optional[str] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.spec = spec
        self.workers = workers
        self.chunk_size = max(1, chunk_size)
        self.chunk_bytes = max(1, chunk_bytes)
        self.max_inflight_bytes = max(1, max_inflight_bytes)
        self.obs = obs
        self.poll_interval = poll_interval
        self.start_method = start_method
        self.worker_summaries: dict = {}
        self._processes: List = []
        self._owner_pid = os.getpid()

    # -- serial path -------------------------------------------------------

    def _run_serial(self, tasks: Iterable[Task]) -> Iterator[TaskOutcome]:
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        root = None
        if tracer is not None and tracer.enabled:
            # Live bulk-worker span, same shape the pooled path grafts.
            root = tracer.span("bulk-worker", worker=0)
            root.__enter__()
        run = self.spec.setup(0)
        docs = 0
        busy = 0.0
        clock = time.perf_counter
        try:
            for index, task in enumerate(tasks):
                started = clock()
                try:
                    result, stats = run(task.payload)
                except BaseException as exc:  # noqa: BLE001
                    busy += clock() - started
                    yield TaskOutcome(
                        index, task.label, error=TaskFailedError(
                            task.label, index, type(exc).__name__, str(exc),
                            traceback.format_exc()))
                    continue
                busy += clock() - started
                docs += 1
                yield TaskOutcome(index, task.label, result, stats)
        except GeneratorExit:
            # Abandoned mid-run: close the span so the tracer stack
            # stays balanced for the enclosing bulk-run exit.
            if root is not None:
                root.attrs["aborted"] = True
                root.__exit__(None, None, None)
            raise
        summary = {"chunks": docs, "docs": docs, "busy_seconds": busy}
        if root is not None:
            root.attrs.update(docs=docs, chunks=docs,
                              busy_seconds=round(busy, 6))
            root.__exit__(None, None, None)
            summary["live_span"] = True
        self.worker_summaries = {0: summary}
        self._record_summary(mode="serial")

    # -- pooled path -------------------------------------------------------

    def run(self, tasks: Iterable[Task]) -> Iterator[TaskOutcome]:
        """Yield one :class:`TaskOutcome` per task, in submission order."""
        obs = self.obs
        drive = self._run_serial if self.workers <= 1 else self._run_pool
        if obs is None:
            yield from drive(tasks)
            return
        # Serial and pooled runs share the span shape: bulk-worker
        # summaries always nest under one bulk-run root.
        with obs.span("bulk-run", workers=max(1, self.workers)):
            yield from drive(tasks)

    def _run_pool(self, tasks: Iterable[Task]) -> Iterator[TaskOutcome]:
        context = multiprocessing.get_context(self.start_method)
        task_queue = context.Queue()
        # SimpleQueue writes synchronously in the worker (no feeder
        # thread), so a "taken" marker is on the wire before the task
        # runs — a hard crash mid-task stays attributable.
        result_queue = context.SimpleQueue()
        task_iter = iter(enumerate(tasks))
        self.worker_summaries = {}
        observe = self.obs is not None
        self._processes = [
            context.Process(target=_worker_main,
                            args=(wid, self.spec, task_queue, result_queue,
                                  observe),
                            daemon=True)
            for wid in range(self.workers)]
        for process in self._processes:
            process.start()
        try:
            yield from self._collect(task_iter, task_queue, result_queue)
        finally:
            self._shutdown()
        self._record_summary(mode="pool")

    def _collect(self, task_iter, task_queue, result_queue
                 ) -> Iterator[TaskOutcome]:
        obs = self.obs
        if obs is not None:
            depth_gauge = obs.metrics.gauge(
                "repro_parallel_queue_depth",
                "task chunks submitted but not yet taken by a worker"
                ).track_max()
            inflight_gauge = obs.metrics.gauge(
                "repro_parallel_inflight_bytes",
                "payload bytes submitted but not yet finished").track_max()
        exhausted = False
        sentinels_sent = False
        next_chunk_id = 0
        inflight_bytes = 0
        submitted_chunks = 0
        taken_chunks = 0
        costs = {}            # seq -> byte cost, removed when reported
        labels = {}           # seq -> label (for crash attribution)
        chunk_pending = {}    # chunk_id -> set of unreported seqs
        chunk_owner = {}      # chunk_id -> worker id, once taken
        done_workers = set()
        ready = {}            # seq -> TaskOutcome, waiting for its turn
        next_emit = 0
        total: Optional[int] = None
        pending_chunk: List[Tuple[int, object, str]] = []
        pending_chunk_cost = 0

        def flush_chunk():
            nonlocal pending_chunk, pending_chunk_cost, next_chunk_id
            nonlocal inflight_bytes, submitted_chunks
            if not pending_chunk:
                return
            chunk_pending[next_chunk_id] = {
                seq for seq, _, _ in pending_chunk}
            task_queue.put((next_chunk_id, pending_chunk))
            next_chunk_id += 1
            submitted_chunks += 1
            inflight_bytes += pending_chunk_cost
            pending_chunk = []
            pending_chunk_cost = 0

        while True:
            # Submit while there is byte headroom; flow control, not a
            # fixed window.
            while not exhausted and inflight_bytes < self.max_inflight_bytes:
                try:
                    seq, task = next(task_iter)
                except StopIteration:
                    exhausted = True
                    # ``costs`` holds every submitted-but-unreported seq
                    # (chunked or still pending), so this is the count
                    # of everything not yet in ``ready`` or emitted.
                    total = next_emit + len(ready) + len(costs)
                    flush_chunk()
                    break
                costs[seq] = task.cost
                labels[seq] = task.label
                pending_chunk.append((seq, task.payload, task.label))
                pending_chunk_cost += task.cost
                if (len(pending_chunk) >= self.chunk_size
                        or pending_chunk_cost >= self.chunk_bytes):
                    flush_chunk()
            if exhausted and not sentinels_sent:
                for _ in range(self.workers):
                    task_queue.put(None)
                sentinels_sent = True
            if obs is not None:
                depth_gauge.set(submitted_chunks - taken_chunks)
                inflight_gauge.set(inflight_bytes)

            # Emit everything that is next in submission order.
            while next_emit in ready:
                yield ready.pop(next_emit)
                next_emit += 1
            if total is not None and next_emit >= total \
                    and len(done_workers) == len(self._processes):
                return

            if result_queue.empty():
                self._check_liveness(done_workers, chunk_owner,
                                     chunk_pending, labels, result_queue)
                time.sleep(self.poll_interval)
                if result_queue.empty():
                    continue
            message = result_queue.get()

            kind = message[0]
            if kind == "doc" or kind == "doc-error":
                _, worker_id, chunk_id, seq, label = message[:5]
                inflight_bytes -= costs.pop(seq, 0)
                labels.pop(seq, None)
                members = chunk_pending.get(chunk_id)
                if members is not None:
                    members.discard(seq)
                    if not members:
                        del chunk_pending[chunk_id]
                        chunk_owner.pop(chunk_id, None)
                if kind == "doc":
                    ready[seq] = TaskOutcome(seq, label, message[5],
                                             message[6])
                else:
                    error = TaskFailedError(label, seq, message[5],
                                            message[6], message[7])
                    ready[seq] = TaskOutcome(seq, label, error=error)
                    if obs is not None:
                        obs.metrics.counter(
                            "repro_parallel_doc_errors_total",
                            "documents whose evaluation raised in a "
                            "worker").inc()
            elif kind == "taken":
                _, worker_id, chunk_id = message
                taken_chunks += 1
                chunk_owner[chunk_id] = worker_id
                if obs is not None:
                    obs.metrics.counter(
                        "repro_parallel_chunks_total",
                        "task chunks pulled from the shared queue, per "
                        "worker (the steal counter)",
                        worker=str(worker_id)).inc()
            elif kind == "done":
                _, worker_id, summary = message
                done_workers.add(worker_id)
                self.worker_summaries[worker_id] = summary
            else:  # fatal: setup (or sentinel handling) blew up
                _, worker_id, exc_type, text, trace = message
                raise WorkerCrashError(
                    "worker %d failed during setup: %s: %s"
                    % (worker_id, exc_type, text),
                    worker_id=worker_id, traceback_text=trace)

    def _check_liveness(self, done_workers, chunk_owner, chunk_pending,
                        labels, result_queue) -> None:
        """A dead worker that never said goodbye is a crash, attributed
        to the first unfinished source of the chunk it held."""
        for worker_id, process in enumerate(self._processes):
            if worker_id in done_workers or process.is_alive():
                continue
            # The worker may have put its last messages and exited
            # after the caller saw an empty queue.  SimpleQueue writes
            # synchronously, so anything a dead worker sent is readable
            # now: read it before calling the exit a crash.
            if not result_queue.empty():
                return
            source = None
            for chunk_id, owner in chunk_owner.items():
                if owner != worker_id:
                    continue
                members = chunk_pending.get(chunk_id)
                if members:
                    source = labels.get(min(members))
                    break
            raise WorkerCrashError(
                "worker %d exited with code %s while processing %s"
                % (worker_id, process.exitcode,
                   source if source is not None else "(no task taken)"),
                worker_id=worker_id, exitcode=process.exitcode,
                source=source)

    def _record_summary(self, mode: str) -> None:
        obs = self.obs
        if obs is None:
            return
        obs.metrics.gauge(
            "repro_parallel_workers",
            "worker processes in the most recent bulk run").set(
                max(1, len(self._processes)) if mode == "pool" else 1)
        for worker_id, summary in sorted(self.worker_summaries.items()):
            obs.metrics.counter(
                "repro_parallel_worker_docs_total",
                "documents evaluated, per worker",
                worker=str(worker_id)).inc(summary.get("docs", 0))
            obs.metrics.gauge(
                "repro_parallel_worker_busy_seconds",
                "seconds spent evaluating documents, per worker, most "
                "recent bulk run",
                worker=str(worker_id)).set(summary.get("busy_seconds", 0.0))
            payload = summary.get("spans")
            if summary.get("live_span"):
                # Serial path: the bulk-worker span was recorded live,
                # already nested under bulk-run.
                pass
            elif payload is not None and obs.tracer.enabled:
                # Pooled path: graft the worker's real span tree under
                # the open bulk-run span, mapping its perf_counter
                # timeline onto ours through the paired (perf, wall)
                # sample it shipped at shutdown.
                sample = summary.get("clock") or {}
                offset = 0.0
                if "perf" in sample and "wall" in sample:
                    offset = ((sample["wall"] - sample["perf"])
                              - (time.time() - time.perf_counter()))
                obs.tracer.graft(payload, offset=offset)
            else:
                # No tree shipped (older worker, or spans disabled in
                # the worker): synthesize the zero-duration summary span
                # so the trace shape stays stable.
                with obs.span("bulk-worker", worker=worker_id,
                              docs=summary.get("docs", 0),
                              chunks=summary.get("chunks", 0),
                              busy_seconds=round(
                                  summary.get("busy_seconds", 0.0), 6)):
                    pass
            state = summary.get("metrics")
            if state and obs.metrics.enabled:
                obs.metrics.merge_state(state)

    def _shutdown(self) -> None:
        """Stop every worker, escalating politely: they are daemons, so
        even a missed terminate cannot outlive the parent."""
        if os.getpid() != self._owner_pid:
            # A forked child inherited this pool mid-run (e.g. the
            # generator was finalized after a later fork); the workers
            # are not its children and must not be touched.
            return
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)
