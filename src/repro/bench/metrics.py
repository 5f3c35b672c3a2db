"""Throughput and memory measurement (Sections 6.2 and 6.3).

Throughput is bytes of input per second of wall time.  Because Python
engines cannot be compared meaningfully to C ones on raw numbers, the
paper normalizes by a PureParser on the same input — *relative
throughput* — and so do we.  The PureParser is the ``xml.sax`` event
producer, which is what the interpreted engines (XSQ-F, XSQ-NC and the
event-fed baselines) parse with, so for them relative throughput
isolates the query-processing overhead as the paper intends.  The
generated kernels parse with ``pyexpat`` directly
(:class:`~repro.streaming.push.PushBatchParser`, no SAX layer and no
event objects), so their relative throughput can exceed 1.0.

Memory is measured two ways and both are reported:

* ``tracemalloc`` peak — total Python allocation high-water mark during
  the run (the analogue of the JVM heap numbers in Figures 19/20);
* engine-reported peaks (buffered items / live instances) where the
  engine exposes them, which track the paper's "only what must be
  buffered" claim directly.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc
from typing import Callable, List, Optional, Tuple

from repro.bench.systems import PureParserAdapter, SystemAdapter


class ThroughputMeasurement:
    """One timed engine run over one input file."""

    __slots__ = ("system", "seconds", "input_bytes", "result_count",
                 "compile_seconds", "preprocess_seconds", "query_seconds")

    def __init__(self, system: str, seconds: float, input_bytes: int,
                 result_count: int, compile_seconds: float = 0.0,
                 preprocess_seconds: float = 0.0,
                 query_seconds: float = 0.0):
        self.system = system
        self.seconds = seconds
        self.input_bytes = input_bytes
        self.result_count = result_count
        self.compile_seconds = compile_seconds
        self.preprocess_seconds = preprocess_seconds
        self.query_seconds = query_seconds

    @property
    def mb_per_second(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.input_bytes / 1e6 / self.seconds

    def __repr__(self):
        return ("<%s: %.3fs, %.2f MB/s, %d results>"
                % (self.system, self.seconds, self.mb_per_second,
                   self.result_count))


class MemoryMeasurement:
    """Peak memory for one engine run over one input file."""

    __slots__ = ("system", "input_bytes", "peak_alloc_bytes",
                 "peak_buffered_items", "result_count")

    def __init__(self, system: str, input_bytes: int, peak_alloc_bytes: int,
                 peak_buffered_items: Optional[int], result_count: int):
        self.system = system
        self.input_bytes = input_bytes
        self.peak_alloc_bytes = peak_alloc_bytes
        self.peak_buffered_items = peak_buffered_items
        self.result_count = result_count

    @property
    def alloc_ratio(self) -> float:
        """Peak allocation as a multiple of the input size."""
        return self.peak_alloc_bytes / max(1, self.input_bytes)

    def __repr__(self):
        return ("<%s: peak %.2f MB on %.2f MB input (x%.2f)>"
                % (self.system, self.peak_alloc_bytes / 1e6,
                   self.input_bytes / 1e6, self.alloc_ratio))


def _input_size(path: str) -> int:
    return os.path.getsize(path)


def measure_throughput(adapter: SystemAdapter, query: str, path: str,
                       repeat: int = 1,
                       obs=None) -> ThroughputMeasurement:
    """Time a full run (compile + preprocess + query), best of ``repeat``.

    Phases are timed separately so Figure 18 can split the stacked bar.
    Each repeat starts from a collected heap, so a cyclic collection of
    garbage an earlier run left behind is not charged to this one, and
    runs with that heap frozen (:func:`gc.freeze`), so the full
    collections the run itself triggers traverse only what the run
    allocates.  Otherwise every run pays for whatever else the calling
    process holds: about 0.2 s per 1 MB run at 100k live objects (a
    test session's heap), a constant that shrinks every ratio between
    runs toward 1.
    ``obs`` accepts an :class:`repro.obs.Observability` bundle: each
    repeat becomes a ``measure`` span (with the adapter's phase spans
    nested underneath) and the best run's numbers land in the metrics
    registry.
    """
    best: Optional[ThroughputMeasurement] = None
    size = _input_size(path)
    previous_obs = adapter.obs
    if obs is not None:
        adapter.use_observability(obs)
    try:
        for _ in range(max(1, repeat)):
            span = (obs.span("measure", system=adapter.name, query=query)
                    if obs is not None else None)
            gc.collect()
            # A caller that froze the heap itself keeps its freeze.
            freeze = gc.get_freeze_count() == 0
            if freeze:
                gc.freeze()
            try:
                if span is not None:
                    span.__enter__()
                t0 = time.perf_counter()
                engine = adapter.compile(query)
                t1 = time.perf_counter()
                adapter.preprocess(engine, path)
                t2 = time.perf_counter()
                results = adapter.query(engine, path)
                t3 = time.perf_counter()
            finally:
                if freeze:
                    gc.unfreeze()
            if span is not None:
                span.__exit__(None, None, None)
            run = ThroughputMeasurement(
                system=adapter.name,
                seconds=t3 - t0,
                input_bytes=size,
                result_count=len(results) if results is not None else 0,
                compile_seconds=t1 - t0,
                preprocess_seconds=t2 - t1,
                query_seconds=t3 - t2,
            )
            if best is None or run.seconds < best.seconds:
                best = run
    finally:
        adapter.obs = previous_obs
    if obs is not None:
        obs.metrics.gauge(
            "repro_throughput_mb_per_second",
            "bytes of input per second of wall time (best of repeats)",
            system=adapter.name).set(best.mb_per_second)
        for phase, seconds in (("compile", best.compile_seconds),
                               ("preprocess", best.preprocess_seconds),
                               ("query", best.query_seconds)):
            obs.metrics.gauge("repro_phase_seconds",
                              "wall time of the Figure 18 phases",
                              system=adapter.name, phase=phase).set(seconds)
    return best


def measure_throughputs(jobs: List[Tuple[SystemAdapter, str]], path: str,
                        repeat: int = 1) -> List[ThroughputMeasurement]:
    """Time several ``(adapter, query)`` runs over one file, best of
    ``repeat`` each, with the repeats interleaved round-robin.

    The figures that compare runs against each other (one query against
    another, XSQ-F against XSQ-NC) use this instead of back-to-back
    :func:`measure_throughput` calls: a burst of machine load then
    slows one round of every job rather than every repeat of one job,
    instead of inverting the comparison.  Every other round runs the
    jobs in reverse, so no job always runs first.
    """
    best: List[Optional[ThroughputMeasurement]] = [None] * len(jobs)
    order = list(range(len(jobs)))
    for _ in range(max(1, repeat)):
        for i in order:
            adapter, query = jobs[i]
            run = measure_throughput(adapter, query, path)
            if best[i] is None or run.seconds < best[i].seconds:
                best[i] = run
        order.reverse()
    return best


#: PureParser baseline seconds, keyed by (absolute path, mtime, size) so
#: a regenerated dataset file invalidates its entry automatically.
_BASELINE_CACHE: dict = {}


def _baseline_cache_key(path: str) -> tuple:
    stat = os.stat(path)
    return (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)


def clear_baseline_cache() -> None:
    """Drop memoized PureParser baselines (tests and long harness runs)."""
    _BASELINE_CACHE.clear()


def relative_throughput(measurement: ThroughputMeasurement,
                        path: str,
                        baseline_seconds: Optional[float] = None) -> float:
    """Normalize against a PureParser pass over the same file.

    Pass ``baseline_seconds`` to reuse one baseline across systems (the
    harness measures it once per dataset).  When it is omitted, the
    baseline is measured once per input file and memoized (keyed by
    path + mtime + size), so per-system calls don't re-parse the whole
    dataset each time.
    """
    if baseline_seconds is None:
        key = _baseline_cache_key(path)
        baseline_seconds = _BASELINE_CACHE.get(key)
        if baseline_seconds is None:
            baseline = measure_throughput(PureParserAdapter(), "/*", path)
            baseline_seconds = baseline.seconds
            _BASELINE_CACHE[key] = baseline_seconds
    if measurement.seconds <= 0:
        return 1.0
    return min(1.0, baseline_seconds / measurement.seconds)


def pureparser_seconds(path: str, repeat: int = 1) -> float:
    """Baseline parse time for ``path`` (best of ``repeat``)."""
    return measure_throughput(PureParserAdapter(), "/*", path,
                              repeat=repeat).seconds


def measure_memory(adapter: SystemAdapter, query: str,
                   path: str) -> MemoryMeasurement:
    """tracemalloc peak across compile + preprocess + query.

    Results are produced but not retained (a streaming system writes
    them to its output), so the measurement charges the engine only for
    what it actually buffers — the quantity Figures 19/20 compare.
    """
    size = _input_size(path)
    gc.collect()  # transient garbage from earlier runs would skew peaks
    tracemalloc.start()
    try:
        engine = adapter.compile(query)
        adapter.preprocess(engine, path)
        count = adapter.query_discarding(engine, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffered = None
    stats = getattr(engine, "last_stats", None)
    if stats is not None:
        buffered = stats.peak_buffered_items
    return MemoryMeasurement(
        system=adapter.name,
        input_bytes=size,
        peak_alloc_bytes=peak,
        peak_buffered_items=buffered,
        result_count=count,
    )


def time_callable(fn: Callable[[], object]) -> float:
    """Wall time of one call; tiny helper for ad-hoc phase timing."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
