"""Ablation: the buffer discipline (Sections 3.3 / 4.3).

Probes what XSQ-F actually retains under three regimes — predicates
decidable at the begin event (nothing buffered), predicates decidable
only at the end event (whole candidates buffered), and closures over
recursive data (buffering bounded by the open path) — plus the cost of
the trace facility itself.
"""

import pytest

from repro.bench.figures import FIG20_QUERY, ablation_buffering
from repro.obs import Observability
from repro.xsq.engine import XSQEngine

PROBES = {
    "early-decision": ("ordered", "/root/a[@id=0]",
                       {"filler_repeats": 2000}),
    "late-decision": ("ordered", "/root/a[posterior=0]",
                      {"filler_repeats": 2000}),
    "closure-recursive": ("recursive", FIG20_QUERY, {}),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.benchmark(group="ablation-buffering")
def test_buffering_regimes(benchmark, cache, probe):
    dataset, query, kwargs = PROBES[probe]
    path = cache.path(dataset, **kwargs)
    engine = XSQEngine(query)
    benchmark(engine.run, path)
    stats = engine.last_stats
    benchmark.extra_info["peak_buffered"] = stats.peak_buffered_items
    benchmark.extra_info["enqueued"] = stats.enqueued
    # Invariant regardless of regime: nothing leaks in the buffer.
    assert stats.enqueued == stats.emitted + stats.cleared


@pytest.mark.benchmark(group="ablation-buffering-trace")
@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
def test_trace_overhead(benchmark, cache, traced):
    """The buffer-operation event trace is diagnostics, not hot path."""
    path = cache.path("ordered", filler_repeats=2000)
    obs = (Observability(spans=False, metrics=False, events=True)
           if traced else None)
    engine = XSQEngine("/root/a[posterior=0]", obs=obs)
    benchmark(engine.run, path)
    if traced:
        assert obs.events.records


def test_report_ablation_buffering(cache):
    print()
    print(ablation_buffering(cache=cache).report())
