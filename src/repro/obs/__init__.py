"""Unified observability: spans, metrics, and execution tracing.

This package is the measurement substrate for every performance claim
the reproduction makes.  It has three pillars, bundled by the
:class:`Observability` facade that engines and the bench harness accept:

* :mod:`repro.obs.spans` — nested phase timings (tokenize -> parse ->
  HPDT compile -> stream -> per-event dispatch) with monotonic clocks;
* :mod:`repro.obs.metrics` — named counters, gauges, and fixed-bucket
  histograms with a pluggable sink protocol and Prometheus-style text
  exposition;
* :mod:`repro.obs.events` — :class:`EventTrace`, the replayable SAX
  event -> transition -> buffer-op record behind ``repro trace``.

Everything is zero-dependency and, when not attached, zero-cost: the
engines keep their un-instrumented hot loops when ``obs is None``, and
the :data:`~repro.obs.spans.NULL_TRACER` / :data:`~repro.obs.metrics.NULL_METRICS`
singletons make partially-disabled bundles safe to call into.

Typical use::

    from repro import XSQEngine
    from repro.obs import Observability

    obs = Observability()
    engine = XSQEngine("//pub[year>2000]//name/text()", obs=obs)
    results = engine.run("catalog.xml")
    print(obs.flame())                    # phase timings
    print(obs.metrics_text())             # Prometheus exposition
    print(obs.events.explain())           # per-item buffer journeys
    obs.write_jsonl("run.jsonl")          # spans + buffer ops + metrics
"""

from __future__ import annotations

import json
from typing import IO, Iterator, List, Optional, Union

from repro.obs.accounting import (
    AuditViolation,
    BufferAuditor,
    DELAY_BUCKETS,
    QueryAccount,
    ResourceAccountant,
    format_delivery,
    format_top,
)
from repro.obs.events import BufferOp, EventTrace
from repro.obs.latency import (
    DeliveryTracker,
    LatencyRecorder,
    ResultTiming,
    percentile,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DELIVERY_BUCKETS,
    FANOUT_BUCKETS,
    LATENCY_BUCKETS,
    SMALL_COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    JsonlMetricsSink,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.obs.profile import ProfileReport, Profiler, profile_query
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import NULL_TRACER, Span, Tracer

#: Canonical buffer-operation names, mapped from ``RunStats`` fields.
#: ``upload`` counts are populated only when an event trace is attached:
#: the matcher skips the ownership arithmetic otherwise (it affects no
#: output, only observability — see ``Chain.on_instance_true``).
_STATS_OPS = (("enqueued", "enqueue"), ("cleared", "clear"),
              ("flushed", "flush"), ("uploaded", "upload"))


class Observability:
    """One bundle of tracer + metrics + event trace.

    Construct with the pillars you want (all on by default except
    per-event dispatch timing, which multiplies per-event work and is
    only worth it when hunting a hot spot)::

        obs = Observability()                        # spans+metrics+events
        obs = Observability(events=False)            # timings/metrics only
        obs = Observability(per_event_timing=True)   # + dispatch histogram
        obs = Observability(accounting=True)         # + live buffer ledger
        obs = Observability(audit=True)              # + discipline auditor
        obs = Observability(profile=True)            # + phase profiler
        obs = Observability(recorder=True)           # + flight recorder
        obs = Observability(serve=9099)              # + HTTP /metrics

    Engines accept ``obs=`` at construction; ``None`` (the default)
    keeps their hot paths exactly as un-instrumented as before.
    ``accounting`` attaches a :class:`~repro.obs.accounting.ResourceAccountant`
    (live occupancy/byte/delay ledgers per query); ``audit`` implies
    accounting and adds the :class:`~repro.obs.accounting.BufferAuditor`
    that checks the paper's necessary-buffering discipline online.
    """

    enabled = True

    def __init__(self, spans: bool = True, metrics: bool = True,
                 events: bool = True, per_event_timing: bool = False,
                 accounting: bool = False, audit: bool = False,
                 profile=False, recorder=False,
                 serve: Optional[int] = None):
        self.tracer: Tracer = Tracer() if spans else NULL_TRACER
        self.metrics: MetricsRegistry = (MetricsRegistry() if metrics
                                         else NULL_METRICS)
        self.events: Optional[EventTrace] = EventTrace() if events else None
        self.per_event_timing = per_event_timing
        self.accounting: Optional[ResourceAccountant] = (
            ResourceAccountant(self.metrics, audit=audit)
            if accounting or audit else None)
        # ``profile`` accepts True (default sampling) or a configured
        # :class:`~repro.obs.profile.Profiler`; ``None`` leaves the
        # document sessions' runtimes unwrapped.
        if profile is True:
            self.profiler: Optional[Profiler] = Profiler()
        elif profile:
            self.profiler = profile
        else:
            self.profiler = None
        # ``recorder`` accepts True (default capacity), an int capacity,
        # or a ready :class:`~repro.obs.recorder.FlightRecorder`;
        # ``False`` keeps the bundle recorder-free (the default — no
        # ring, no span hook, nothing on the hot path).
        if recorder is True:
            self.flight: Optional[FlightRecorder] = FlightRecorder()
        elif isinstance(recorder, int) and recorder:
            self.flight = FlightRecorder(capacity=recorder)
        elif recorder:
            self.flight = recorder
        else:
            self.flight = None
        if self.flight is not None and self.tracer.enabled:
            self.tracer.on_finish = self.flight.record_span
        #: Lazily attached :class:`~repro.obs.latency.DeliveryTracker`
        #: (see :meth:`enable_delivery`).
        self.delivery: Optional[DeliveryTracker] = None
        self.server = None
        if serve is not None:
            self.serve(serve)
        # High-water mark into ``events.records`` already aggregated into
        # per-BPDT metrics, so several runs on one bundle don't double
        # count.
        self._aggregated_ops = 0

    @classmethod
    def disabled(cls) -> "Observability":
        """A bundle that observes nothing (all pillars are no-ops)."""
        obs = cls(spans=False, metrics=False, events=False)
        obs.enabled = False
        return obs

    # -- convenience delegates -------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        return self.tracer.span(name, **attrs)

    def counter(self, name: str, help: str = "", **labels):
        return self.metrics.counter(name, help, **labels)

    def gauge(self, name: str, help: str = "", **labels):
        return self.metrics.gauge(name, help, **labels)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS,
                  **labels):
        return self.metrics.histogram(name, help, buckets=buckets, **labels)

    @property
    def per_event(self) -> bool:
        """Does the bundle carry an instrument that must see each event
        inside the runtime (event trace, accountant, per-event timing)?

        Generated kernels have no per-event hook points, so such a
        bundle runs a single query and every query-group member on the
        interpreted runtimes; spans, metrics and the profiler keep the
        kernels.
        """
        return (self.events is not None or self.accounting is not None
                or self.per_event_timing)

    # -- engine hooks -----------------------------------------------------

    def event_hook(self):
        """Per-event callable combining the trace and the accountant.

        Engines call the returned hook once per stream event (it feeds
        the :class:`EventTrace` and advances the accountant's
        event-count clock); ``None`` when neither pillar needs events.
        """
        trace_hook = self.events.on_event if self.events is not None else None
        account = self.accounting
        if account is None:
            return trace_hook
        acct_hook = account.on_event
        if trace_hook is None:
            return acct_hook

        def hook(event):
            trace_hook(event)
            acct_hook(event)

        return hook

    def serve(self, port: int = 0, host: str = "127.0.0.1"):
        """Start (or return) the HTTP metrics endpoint for this bundle.

        Exposes ``/metrics`` (Prometheus text), ``/healthz`` and
        ``/snapshot`` on a daemon thread; ``port=0`` binds an ephemeral
        port (read it back from ``obs.server.port``).
        """
        if self.server is None:
            from repro.obs.serve import MetricsServer
            self.server = MetricsServer(self, port=port, host=host)
            self.server.start()
        return self.server

    def enable_delivery(self) -> DeliveryTracker:
        """Attach (or return) the end-to-end delivery latency tracker.

        The tracker observes ``repro_serve_delivery_seconds`` /
        ``repro_serve_stage_seconds`` on this bundle's registry (when
        metrics are enabled) and keeps bounded reservoirs for exact
        percentiles in :meth:`snapshot` and ``stats`` responses.
        """
        if self.delivery is None:
            self.delivery = DeliveryTracker(
                self.metrics if self.metrics.enabled else None)
        return self.delivery

    def enable_audit(self) -> BufferAuditor:
        """Attach (or return) the buffer auditor, creating the
        accountant if accounting was off."""
        if self.accounting is None:
            self.accounting = ResourceAccountant(self.metrics, audit=True)
        return self.accounting.enable_audit()

    @property
    def auditor(self) -> Optional[BufferAuditor]:
        return self.accounting.auditor if self.accounting is not None \
            else None

    @property
    def audit_violations(self) -> List[AuditViolation]:
        """Violations found so far (empty when the auditor is off)."""
        return self.accounting.violations if self.accounting is not None \
            else []

    def snapshot(self) -> dict:
        """Point-in-time resource snapshot (the ``xsq top`` payload).

        Requires ``accounting=True``; returns ``{"accounting": False}``
        otherwise so callers can branch without try/except.
        """
        if self.accounting is None:
            snap = {"accounting": False}
        else:
            snap = self.accounting.snapshot()
            snap["accounting"] = True
        if self.delivery is not None:
            snap["delivery"] = self.delivery.snapshot()
        return snap

    def record_run(self, engine: str, stats, seconds: float = 0.0) -> None:
        """Fold one run's ``RunStats`` into the metrics registry."""
        metrics = self.metrics
        metrics.counter("repro_runs_total",
                        "engine runs recorded", engine=engine).inc()
        metrics.counter("repro_run_events_total",
                        "stream events processed", engine=engine
                        ).inc(stats.events)
        metrics.counter("repro_results_total",
                        "result items emitted", engine=engine
                        ).inc(stats.emitted)
        stats_dict = stats.as_dict()
        for field, op in _STATS_OPS:
            metrics.counter(
                "repro_buffer_ops_total",
                "buffer operations (the paper's enqueue/clear/flush/upload)",
                engine=engine, op=op).inc(stats_dict.get(field, 0))
        metrics.gauge("repro_peak_buffered_items",
                      "max simultaneously buffered undetermined items",
                      engine=engine).set_max(stats.peak_buffered_items)
        metrics.gauge("repro_peak_predicate_instances",
                      "max simultaneously live predicate instances "
                      "(depth-vector population)",
                      engine=engine).set_max(stats.peak_instances)
        metrics.histogram("repro_peak_occupancy_items",
                          "per-run peak buffer occupancy",
                          engine=engine).observe(stats.peak_buffered_items)
        self.record_rate(engine, stats.events, seconds)
        self._aggregate_events(engine)

    def record_rate(self, engine: str, events: int, seconds: float) -> None:
        """Set the events-per-second gauge from a timed pass."""
        if seconds > 0:
            self.metrics.gauge("repro_events_per_second",
                               "stream events per second of query phase",
                               engine=engine).set(events / seconds)

    def _aggregate_events(self, engine: str) -> None:
        """Per-BPDT op counters and depth-vector sizes from the trace."""
        trace = self.events
        if trace is None:
            return
        records = trace.records
        metrics = self.metrics
        dv_histogram = metrics.histogram(
            "repro_depth_vector_len",
            "depth-vector length at enqueue (embedding depth)",
            buckets=SMALL_COUNT_BUCKETS, engine=engine)
        for record in records[self._aggregated_ops:]:
            metrics.counter(
                "repro_bpdt_ops_total",
                "buffer operations per owning BPDT buffer",
                engine=engine, bpdt="(%d,%d)" % record.bpdt,
                op=record.op).inc()
            if record.op == "enqueue":
                dv_histogram.observe(len(record.depth_vector))
        self._aggregated_ops = len(records)

    # -- export ----------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        """Spans, buffer ops, audit violations, accounting, metrics."""
        for line in self.tracer.jsonl_lines():
            yield line
        if self.events is not None:
            for line in self.events.jsonl_lines():
                yield line
        if self.accounting is not None:
            for violation in self.accounting.violations:
                yield json.dumps(violation.as_dict(), sort_keys=True)
            yield json.dumps({"type": "accounting",
                              "snapshot": self.accounting.snapshot()},
                             sort_keys=True)
        if self.profiler is not None and self.profiler.events:
            yield json.dumps(self.profiler.report().as_dict(),
                             sort_keys=True)
        if self.delivery is not None and self.delivery.completed:
            yield json.dumps({"type": "delivery",
                              "snapshot": self.delivery.snapshot()},
                             sort_keys=True)
        if self.flight is not None and len(self.flight):
            yield json.dumps({"type": "flight",
                              "snapshot": self.flight.snapshot()},
                             sort_keys=True)
        if self.metrics.enabled:
            yield json.dumps({"type": "metrics",
                              "snapshot": self.metrics.as_dict()},
                             sort_keys=True)

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write the JSONL export to a path or stream; returns line count."""
        lines: List[str] = list(self.jsonl_lines())
        if hasattr(target, "write"):
            for line in lines:
                target.write(line + "\n")
        else:
            with open(target, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
        return len(lines)

    def metrics_text(self) -> str:
        return self.metrics.render_prometheus()

    def flame(self) -> str:
        return self.tracer.flame()

    def __repr__(self):
        return ("<Observability spans=%d metrics=%d events=%s>"
                % (len(self.tracer.finished),
                   len(self.metrics.metrics()),
                   len(self.events.records) if self.events is not None
                   else "off"))


__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlMetricsSink",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "DELIVERY_BUCKETS",
    "FANOUT_BUCKETS",
    "SMALL_COUNT_BUCKETS",
    "DeliveryTracker",
    "LatencyRecorder",
    "ResultTiming",
    "percentile",
    "FlightRecorder",
    "Profiler",
    "ProfileReport",
    "profile_query",
    "EventTrace",
    "BufferOp",
    "ResourceAccountant",
    "QueryAccount",
    "BufferAuditor",
    "AuditViolation",
    "DELAY_BUCKETS",
    "format_top",
    "format_delivery",
]
