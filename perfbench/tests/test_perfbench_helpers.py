"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

from perfbench import ledger
from perfbench.common import (Tally, compare_results, expat_floor,
                              floor_seconds, latency_summary, percentile,
                              pinned, samples_beyond, tail_percentile)
from perfbench.trace import Patches, Tracer, self_times, total_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- percentiles ---------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == pytest.approx(1.75)


def test_percentile_of_one_sample_and_of_none():
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(100, 90) == 10


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(999)))[0] == 95.0
    assert tail_percentile(list(range(200)))[0] == 95.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(20))) == (None, None)


def test_latency_summary_reports_count_and_p99_support():
    summary = latency_summary([i / 1000.0 for i in range(1, 401)])
    assert summary["samples"] == 400
    assert summary["p50_ms"] == pytest.approx(200.5)
    assert summary["tail_pct"] == 95.0
    assert summary["p99_supported"] is False
    assert latency_summary([]) == {"samples": 0}


# -- oracle comparison ---------------------------------------------------------

def test_compare_results_equal_is_none():
    assert compare_results(["a", "b"], ["a", "b"]) is None
    assert compare_results([], []) is None


def test_compare_results_names_first_difference():
    why = compare_results(["a", "b", "c"], ["a", "x", "c"])
    assert "#1" in why and "'b'" in why and "'x'" in why


def test_compare_results_missing_and_extra():
    assert "missing 2" in compare_results(["a", "b", "c"], ["a"])
    assert "1 extra" in compare_results(["a"], ["a", "b"])
    assert "expected a list" in compare_results(["a"], None)


def test_order_matters():
    assert compare_results(["a", "b"], ["b", "a"]) is not None


def test_tally_counts_checks():
    tally = Tally(keep=1)
    assert tally.check(["a"], ["a"], "q1")
    assert not tally.check(["a"], ["b"], "q2")
    tally.fail("boom")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.examples == ["q2: result #0 differs: expected 'a', "
                              "got 'b'"]


# -- the parse floor and pinning ---------------------------------------------

BLOB = b"<a>" + b"<b x='1'>text</b>" * 200 + b"</a>"


def test_floor_times_a_parse_and_sums_over_blobs():
    assert floor_seconds(BLOB) > 0
    assert expat_floor([]) == 0
    assert expat_floor([BLOB, BLOB]) > 0


def test_floor_rejects_malformed_input():
    with pytest.raises(Exception):
        floor_seconds(b"<a><b></a>")


def test_pinned_runs_on_one_cpu_and_restores():
    home = os.sched_getaffinity(0)
    with pinned():
        assert os.sched_getaffinity(0) == {min(home)}
    assert os.sched_getaffinity(0) == home


# -- spans and self time -------------------------------------------------------

class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_children():
    # parent 0..10, child 2..5, grandchild 3..4, second child 6..7
    tracer = Tracer(clock=FakeClock(0, 2, 3, 4, 5, 6, 7, 10))
    parent = tracer.begin("parent")
    child = tracer.begin("child")
    grandchild = tracer.begin("grandchild")
    tracer.end(grandchild, 5)
    tracer.end(child)
    child2 = tracer.begin("child")
    tracer.end(child2)
    tracer.end(parent)
    selfs = self_times(tracer.spans)
    assert selfs["parent"] == [6.0, 1, 0]
    assert selfs["child"] == [3.0, 2, 0]
    assert selfs["grandchild"] == [1.0, 1, 5]
    assert total_times(tracer.spans)["child"] == 4.0


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, 0],
             ["a", 1.0, 6.0, 0, 0],
             ["b", 4.0, 8.0, 0, 0],
             ["c", 9.0, 12.0, 0, 0]]       # clipped to the parent
    assert self_times(spans)["p"][0] == pytest.approx(2.0)


def test_spans_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_unkept_tracer_drops_finished_trees():
    tracer = Tracer(keep=False)
    with tracer.span("root"):
        with tracer.span("leaf"):
            assert len(tracer.spans) == 2
    assert tracer.spans == []


class Thing:
    def work(self, n):
        return list(range(n))


def test_patches_wrap_and_restore_methods():
    tracer = Tracer()
    original = Thing.work
    with Patches(tracer) as patches:
        patches.method(Thing, "work", "thing.work",
                       lambda args, result: len(result))
        assert Thing().work(3) == [0, 1, 2]
    assert Thing.work is original
    assert self_times(tracer.spans)["thing.work"][1:] == [1, 3]


def test_patches_restore_inherited_methods():
    class Child(Thing):
        pass

    with Patches(Tracer()) as patches:
        patches.method(Child, "work", "child.work")
        assert "work" in Child.__dict__
    assert "work" not in Child.__dict__


# -- the catalogue matches BENCHMARK.json --------------------------------------

def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == ledger.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == ledger.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == ["pull", "small-docs", "serve"]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_complete_fills_idle_layers_with_zero():
    out = ledger.complete({"xsq.kernel_s": 1.5}, ledger.PER_LAYER)
    assert out["xsq.kernel_s"] == {"value": 1.5, "unit": "s"}
    assert out["parallel.chunks"] == {"value": 0, "unit": "count"}
    assert len(out) == len(ledger.PER_LAYER)
