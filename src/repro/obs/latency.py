"""End-to-end delivery latency: per-result provenance timestamps.

The paper's promise is results *as the data streams by*; PR 3's
emission-delay histograms measure only the engine-internal segment (in
events, not seconds).  This module measures the full path a result
travels through the push/serve pipeline, in seconds on the same
monotonic clock discipline as :mod:`repro.obs.spans`:

    feed-call entry -> event batch parsed -> result emitted ->
    broker dispatch -> outbox enqueue -> socket write

Each delivered result carries one :class:`ResultTiming` record.  Stages
stamp it as the result passes: the broker stream stamps feed/batch and,
after fanning results out to their subscriptions, emit; the server
stamps dispatch/enqueue/write.  Completed timings fold into a
:class:`DeliveryTracker` — per-subscription
``repro_serve_delivery_seconds`` and per-stage
``repro_serve_stage_seconds`` histograms on the shared metrics
registry, plus bounded in-memory reservoirs for exact p50/p99 in
``stats`` responses, ``xsq top`` and ``BENCH_latency.json``.

The disabled path is free by construction: the document sessions
carry no stamp site at all, and a broker stream without a bundle has
no recorder (priced in ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import DELIVERY_BUCKETS, LATENCY_BUCKETS

#: Pipeline stage names, in path order.  Each is the delta between two
#: adjacent timestamps on a :class:`ResultTiming`.
STAGES = ("parse", "match", "dispatch", "enqueue", "write")

#: Per-subscription reservoir size for exact percentile estimates.
DEFAULT_RESERVOIR = 512


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of an unsorted sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(math.ceil(q * len(ordered))) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


class ResultTiming:
    """Provenance record for one delivered result.

    Timestamps are ``time.perf_counter`` readings taken in the serving
    process; a ``None`` field means the result never passed that stage
    (e.g. broker-only use without a server leaves dispatch onward
    unset).
    """

    __slots__ = ("sub", "tenant", "feed", "batch", "emit", "dispatch",
                 "enqueue", "write")

    def __init__(self, feed: Optional[float] = None,
                 batch: Optional[float] = None,
                 emit: Optional[float] = None):
        self.sub: Optional[str] = None
        self.tenant: Optional[str] = None
        self.feed = feed
        self.batch = batch
        self.emit = emit
        self.dispatch: Optional[float] = None
        self.enqueue: Optional[float] = None
        self.write: Optional[float] = None

    @property
    def total(self) -> Optional[float]:
        """Feed-entry to socket-write seconds; ``None`` if incomplete."""
        if self.feed is None or self.write is None:
            return None
        return self.write - self.feed

    def stage_deltas(self) -> List[Tuple[str, float]]:
        """(stage, seconds) pairs for every adjacent stamped pair."""
        path = (("parse", self.feed, self.batch),
                ("match", self.batch, self.emit),
                ("dispatch", self.emit, self.dispatch),
                ("enqueue", self.dispatch, self.enqueue),
                ("write", self.enqueue, self.write))
        return [(stage, later - earlier)
                for stage, earlier, later in path
                if earlier is not None and later is not None]

    def as_dict(self) -> dict:
        record = {"sub": self.sub, "tenant": self.tenant}
        for field in ("feed", "batch", "emit", "dispatch", "enqueue",
                      "write"):
            record[field] = getattr(self, field)
        return record

    def __repr__(self):
        total = self.total
        return "<ResultTiming sub=%s %s>" % (
            self.sub, "open" if total is None else "%.6fs" % total)


class LatencyRecorder:
    """Per-stream stamping frontend for one feed/emit cycle.

    A :class:`~repro.serve.broker.BrokerStream` owns one recorder and
    stamps it itself: ``start_feed``/``mark_batch`` at the transport
    boundary, then :meth:`emitted_to` once its results are fanned out
    to their subscriptions.
    """

    __slots__ = ("tracker", "clock", "pending", "_feed", "_batch")

    def __init__(self, tracker: "DeliveryTracker"):
        self.tracker = tracker
        self.clock = tracker.clock
        #: Timings emitted but not yet claimed via :meth:`take`.
        self.pending: List[ResultTiming] = []
        self._feed: Optional[float] = None
        self._batch: Optional[float] = None

    def start_feed(self) -> None:
        """Stamp feed-call entry (transport boundary, before parsing)."""
        self._feed = self.clock()
        self._batch = None

    def mark_batch(self) -> None:
        """Stamp the event batch boundary (bytes parsed into events)."""
        self._batch = self.clock()

    def emitted_to(self, owners: Sequence[Tuple[str, str]]) -> None:
        """Record one delivered result per ``(sub, tenant)`` in ``owners``.

        The broker stamps emission after fanning each engine result out
        to every subscription that owns its query, so each delivered
        pair gets its own record, labelled at birth.  All records of
        one cycle share the feed/batch stamps and one emit stamp —
        emission is a batch boundary, not a per-result event — then the
        cycle resets for the next feed call.
        """
        if owners:
            now = self.clock()
            feed, batch = self._feed, self._batch
            pending = self.pending
            for sub, tenant in owners:
                timing = ResultTiming(feed, batch, now)
                timing.sub = sub
                timing.tenant = tenant
                pending.append(timing)
        self._feed = None
        self._batch = None

    def take(self) -> List[ResultTiming]:
        """Claim pending timings (1:1, in emission order)."""
        out, self.pending = self.pending, []
        return out


class DeliveryTracker:
    """Aggregates completed :class:`ResultTiming` records.

    Thread-safe: the asyncio writer tasks complete timings while the
    metrics HTTP thread snapshots.  Per-subscription reservoirs are
    bounded deques, so a long-running server keeps recent-window
    percentiles without unbounded growth.
    """

    def __init__(self, metrics=None, reservoir: int = DEFAULT_RESERVOIR,
                 clock=time.perf_counter):
        self.metrics = metrics
        self.clock = clock
        self.reservoir = reservoir
        self.completed = 0
        self._lock = threading.Lock()
        self._subs: Dict[str, dict] = {}

    def recorder(self) -> LatencyRecorder:
        """A stamping frontend bound to this tracker's clock."""
        return LatencyRecorder(self)

    def complete(self, timing: ResultTiming) -> None:
        """Fold one written-to-socket result into histograms/reservoirs."""
        total = timing.total
        if total is None:
            return
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram(
                "repro_serve_delivery_seconds",
                "end-to-end result delivery latency: feed-call entry to "
                "socket write",
                buckets=DELIVERY_BUCKETS,
                tenant=timing.tenant or "", sub=timing.sub or "",
            ).observe(total)
            for stage, delta in timing.stage_deltas():
                metrics.histogram(
                    "repro_serve_stage_seconds",
                    "per-stage delivery pipeline latency",
                    buckets=LATENCY_BUCKETS, stage=stage,
                ).observe(delta)
        with self._lock:
            entry = self._subs.get(timing.sub)
            if entry is None:
                entry = {"tenant": timing.tenant, "count": 0,
                         "latencies": deque(maxlen=self.reservoir)}
                self._subs[timing.sub] = entry
            entry["count"] += 1
            entry["latencies"].append(total)
            self.completed += 1

    def latencies(self, sub: Optional[str] = None) -> List[float]:
        """Reservoir samples for one subscription, or all pooled."""
        with self._lock:
            if sub is not None:
                entry = self._subs.get(sub)
                return list(entry["latencies"]) if entry else []
            return [value for entry in self._subs.values()
                    for value in entry["latencies"]]

    def snapshot(self) -> dict:
        """JSON-safe summary: per-sub count/p50/p99/mean/max seconds."""
        with self._lock:
            subs = {sid: (entry["tenant"], entry["count"],
                          list(entry["latencies"]))
                    for sid, entry in self._subs.items()}
            completed = self.completed
        pooled: List[float] = []
        rendered = {}
        for sid in sorted(subs):
            tenant, count, samples = subs[sid]
            pooled.extend(samples)
            rendered[sid] = {
                "tenant": tenant,
                "count": count,
                "p50_seconds": percentile(samples, 0.50),
                "p99_seconds": percentile(samples, 0.99),
                "mean_seconds": (sum(samples) / len(samples)
                                 if samples else 0.0),
                "max_seconds": max(samples) if samples else 0.0,
            }
        return {
            "completed": completed,
            "p50_seconds": percentile(pooled, 0.50),
            "p99_seconds": percentile(pooled, 0.99),
            "max_seconds": max(pooled) if pooled else 0.0,
            "subscriptions": rendered,
        }

    def __repr__(self):
        return "<DeliveryTracker %d completed>" % self.completed
