"""The metric catalogue: every end-to-end and per-layer metric by name.

``BENCHMARK.json`` lists the same names and units; a self-test keeps
the two in step.  Every run reports every metric of its kind.  A layer
that a workload does not exercise reads 0 there (the ``pull`` workload
starts no pool, so ``parallel.*`` is 0), which is the measured value,
not a placeholder.
"""

from __future__ import annotations

from perfbench.trace import layer_calls, layer_count, layer_seconds

#: (name, unit) of the end-to-end metrics, measured with tracing off.
#: The ``*_vs_floor`` ones are relative to the parse floor timed beside
#: the measured work (see ``common.floor_seconds``): throughput as the
#: floor's seconds over the program's, latency as the program's seconds
#: over the floor's for the same document.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_vs_floor", "ratio"),
    ("alt_throughput_vs_floor", "ratio"),
    ("latency_p50_vs_floor", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of the per-layer metrics, from the traced run.
PER_LAYER = [
    ("xpath.parse_s", "s"),
    ("xsq.hpdt_s", "s"),
    ("xsq.fastplan_s", "s"),
    ("xsq.codegen_s", "s"),
    ("streaming.expat_floor_s", "s"),
    ("streaming.batch_s", "s"),
    ("streaming.events", "count"),
    ("xsq.kernel_s", "s"),
    ("streaming.event_s", "s"),
    ("xsq.nc_s", "s"),
    ("xsq.f_s", "s"),
    ("xsq.buffers.enqueued", "count"),
    ("xsq.buffers.emitted", "count"),
    ("xsq.buffers.peak_items", "count"),
    ("xsq.buffers.useful_ratio", "ratio"),
    ("xsq.tier.codegen", "count"),
    ("xsq.tier.fast", "count"),
    ("xsq.tier.nc", "count"),
    ("xsq.tier.f", "count"),
    ("api.session_open_s", "s"),
    ("streaming.push_parse_s", "s"),
    ("streaming.chunks", "count"),
    ("xsq.push_feed_s", "s"),
    ("xsq.push_finish_s", "s"),
    ("parallel.first_result_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.busy_ratio", "ratio"),
    ("parallel.chunks", "count"),
    ("parallel.docs_per_s", "1/s"),
    ("parallel.inprocess_s", "s"),
    ("serve.broker.subscribe_s", "s"),
    ("serve.broker.open_s", "s"),
    ("serve.broker.rebuilds", "count"),
    ("streaming.push_event_parse_s", "s"),
    ("xsq.multiquery.feed_s", "s"),
    ("serve.broker.route_s", "s"),
    ("serve.server.docs_per_s", "1/s"),
    ("serve.server.p50_ms", "ms"),
    ("serve.server.overhead_s", "s"),
    ("serve.subscriptions", "count"),
    ("serve.distinct_queries", "count"),
    ("serve.results", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def from_spans(selfs, totals):
    """The per-layer metrics that spans alone determine."""
    return {
        "xpath.parse_s": layer_seconds(selfs, "xpath.parse"),
        "xsq.hpdt_s": layer_seconds(selfs, "xsq.hpdt"),
        "xsq.fastplan_s": layer_seconds(selfs, "xsq.fastplan"),
        "xsq.codegen_s": layer_seconds(selfs, "xsq.codegen"),
        "streaming.expat_floor_s": layer_seconds(selfs,
                                                 "streaming.expat_floor"),
        "streaming.batch_s": layer_seconds(selfs, "streaming.batches"),
        "streaming.events": layer_count(selfs, "streaming.batches",
                                        "streaming.events"),
        "xsq.kernel_s": layer_seconds(selfs, "xsq.kernel.feed",
                                      "xsq.kernel.finish"),
        "streaming.event_s": layer_seconds(selfs, "streaming.events"),
        "xsq.nc_s": layer_seconds(selfs, "xsq.nc.feed", "xsq.nc.finish"),
        "xsq.f_s": layer_seconds(selfs, "xsq.f.feed", "xsq.f.finish"),
        "api.session_open_s": layer_seconds(selfs, "api.session_open"),
        "streaming.push_parse_s": layer_seconds(
            selfs, "streaming.push_batch.feed",
            "streaming.push_batch.finish"),
        "streaming.chunks": layer_calls(selfs, "streaming.push_batch.feed",
                                        "streaming.push_event.feed"),
        "xsq.push_feed_s": layer_seconds(selfs, "xsq.kernel.feed",
                                         "xsq.nc.feed", "xsq.f.feed"),
        "xsq.push_finish_s": layer_seconds(selfs, "xsq.kernel.finish",
                                           "xsq.nc.finish", "xsq.f.finish"),
        "serve.broker.subscribe_s": layer_seconds(
            selfs, "serve.broker.subscribe", "serve.broker.unsubscribe"),
        "serve.broker.open_s": totals.get("serve.broker.open", 0.0),
        "serve.broker.rebuilds": layer_calls(selfs, "xsq.multiquery.build"),
        "streaming.push_event_parse_s": layer_seconds(
            selfs, "streaming.push_event.feed",
            "streaming.push_event.finish"),
        "xsq.multiquery.feed_s": layer_seconds(
            selfs, "xsq.multiquery.feed", "xsq.multiquery.finish"),
        "serve.broker.route_s": layer_seconds(selfs, "serve.broker.route"),
    }


def buffer_metrics(run_stats):
    """Buffer work from the engines' ``RunStats`` of the traced pass.

    ``useful_ratio`` is emitted / enqueued: the share of buffered items
    that became results rather than being cleared.  With nothing
    enqueued nothing was wasted, so it reads 1.
    """
    enqueued = sum(s.enqueued for s in run_stats)
    emitted = sum(s.emitted for s in run_stats)
    return {
        "xsq.buffers.enqueued": enqueued,
        "xsq.buffers.emitted": emitted,
        "xsq.buffers.peak_items": max(
            (s.peak_buffered_items for s in run_stats), default=0),
        "xsq.buffers.useful_ratio": (emitted / enqueued if enqueued
                                     else 1.0),
    }


def tier_metrics(tiers):
    return {"xsq.tier.%s" % t: tiers.get(t, 0)
            for t in ("codegen", "fast", "nc", "f")}


def complete(values, catalogue):
    """Every metric of ``catalogue``, as ``{name: {value, unit}}``."""
    out = {}
    for name, unit in catalogue:
        value = values.get(name) or 0
        out[name] = {"value": value, "unit": unit}
    return out
