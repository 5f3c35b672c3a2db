"""Perf-regression ledger: ``python -m repro.bench diff``."""

import copy
import json

import pytest

from repro.bench.ledger import (
    DEFAULT_THRESHOLD,
    Delta,
    append_history,
    diff_artifacts,
    flatten,
    load_artifact,
    main as diff_main,
    metric_direction,
    render,
)


def throughput_artifact():
    return {
        "bench": "throughput", "schema_version": 1,
        "workloads": [
            {"dataset": "shake", "query": "//LINE/text()",
             "target_bytes": 1000000, "mbytes": 1.0,
             "engines": {
                 "fast": {"engine": "xsq-fast", "seconds": 0.10,
                          "mb_per_s": 10.0, "results": 5},
                 "f": {"engine": "xsq-f", "seconds": 0.50,
                       "mb_per_s": 2.0, "results": 5},
             },
             "fast_speedup_vs_interpreted": 5.0},
            {"dataset": "nasa", "query": "//dataset/title/text()",
             "target_bytes": 2000000, "mbytes": 2.0,
             "engines": {
                 "fast": {"engine": "xsq-fast", "seconds": 0.20,
                          "mb_per_s": 10.0, "results": 3},
             }},
        ],
    }


def memory_artifact():
    return {
        "bench": "memory-accounting", "schema_version": 1,
        "workloads": [
            {"figure": "fig19", "dataset": "shake", "engine": "xsq-f",
             "query": "//SPEECH[SPEAKER]/LINE/text()",
             "target_bytes": 500000, "events": 100, "results": 7,
             "peak_items": 12, "peak_bytes": 4096, "peak_instances": 3,
             "delay_mean": 1.5, "delay_max": 9},
        ],
    }


def latency_artifact():
    return {
        "bench": "latency", "schema_version": 1,
        "workloads": [
            {"subscribers": 1, "documents": 20, "results": 20,
             "delivery_p50_seconds": 0.0004,
             "delivery_p99_seconds": 0.0011,
             "delivery_max_seconds": 0.0030},
            {"subscribers": 10, "documents": 20, "results": 200,
             "delivery_p50_seconds": 0.0009,
             "delivery_p99_seconds": 0.0042,
             "delivery_max_seconds": 0.0088},
        ],
    }


class TestDirectionAndFlatten:
    def test_metric_direction(self):
        assert metric_direction("mb_per_s")
        assert metric_direction("docs_per_s")
        assert metric_direction("fast_speedup_vs_interpreted")
        assert not metric_direction("seconds")
        assert not metric_direction("peak_bytes")
        assert not metric_direction("delay_max")

    def test_latency_metrics_are_lower_is_better(self):
        # Delivery latency regresses when it grows; the metric names
        # must not contain any higher-is-better fragment.
        for metric in ("delivery_p50_seconds", "delivery_p99_seconds",
                       "delivery_max_seconds"):
            assert not metric_direction(metric)

    def test_flatten_latency_keys(self):
        rows = flatten(latency_artifact())
        assert rows[("subs1@20docs", "delivery_p50_seconds")] == 0.0004
        assert rows[("subs10@20docs", "delivery_p99_seconds")] == 0.0042
        # Counts are identity, not perf metrics.
        assert ("subs1@20docs", "results") not in rows

    def test_flatten_distinct_latency_cell_has_its_own_key(self):
        artifact = latency_artifact()
        artifact["workloads"].append(
            {"subscribers": 10, "distinct_queries": 10, "documents": 20,
             "delivery_p50_seconds": 0.0021})
        rows = flatten(artifact)
        assert rows[("subs10@20docs", "delivery_p50_seconds")] == 0.0009
        assert rows[("subs10-distinct@20docs",
                     "delivery_p50_seconds")] == 0.0021

    def test_flatten_throughput_keys(self):
        rows = flatten(throughput_artifact())
        assert rows[("shake@1000000", "fast.seconds")] == 0.10
        assert rows[("shake@1000000", "f.mb_per_s")] == 2.0
        assert rows[("shake@1000000", "fast_speedup_vs_interpreted")] == 5.0
        assert ("nasa@2000000", "fast.mb_per_s") in rows

    def test_flatten_memory_keys(self):
        rows = flatten(memory_artifact())
        key = "fig19/shake/xsq-f@500000"
        assert rows[(key, "peak_items")] == 12
        assert rows[(key, "delay_max")] == 9
        # Non-perf fields (events/results) are not treated as metrics...
        # actually they are numeric workload fields only in the generic
        # walk; the memory flattener picks an explicit metric list.
        assert (key, "events") not in rows

    def test_flatten_parallel_keys(self):
        rows = flatten({
            "bench": "parallel", "schema_version": 1,
            "workloads": [{
                "dataset": "shake", "docs": 8, "doc_bytes": 250000,
                "workers": {
                    "1": {"seconds": 1.0, "docs_per_s": 8.0,
                          "mb_per_s": 2.0},
                    "2": {"seconds": 0.6, "docs_per_s": 13.3,
                          "mb_per_s": 3.3, "speedup_vs_serial": 1.66},
                }}],
        })
        assert rows[("shake@8x250000", "w1.seconds")] == 1.0
        assert rows[("shake@8x250000", "w2.speedup_vs_serial")] == 1.66

    def test_flatten_unknown_kind_generic_walk(self):
        rows = flatten({"bench": "custom", "workloads": [
            {"name": "x", "score": 3.5, "ok": True, "label": "s"}]})
        assert rows == {("x", "score"): 3.5}


class TestDiff:
    def test_identical_artifacts_ok(self):
        result = diff_artifacts(throughput_artifact(),
                                throughput_artifact())
        assert result.ok
        assert not result.regressions and not result.improvements
        assert len(result.deltas) > 0

    def test_regression_beyond_threshold_flagged(self):
        new = throughput_artifact()
        new["workloads"][0]["engines"]["fast"]["mb_per_s"] = 5.0  # -50%
        new["workloads"][0]["engines"]["fast"]["seconds"] = 0.20  # +100%
        result = diff_artifacts(throughput_artifact(), new)
        assert not result.ok
        flagged = {(d.workload, d.metric) for d in result.regressions}
        assert ("shake@1000000", "fast.mb_per_s") in flagged
        assert ("shake@1000000", "fast.seconds") in flagged

    def test_improvement_is_not_a_regression(self):
        new = throughput_artifact()
        new["workloads"][0]["engines"]["fast"]["mb_per_s"] = 20.0
        new["workloads"][0]["engines"]["fast"]["seconds"] = 0.05
        result = diff_artifacts(throughput_artifact(), new)
        assert result.ok
        assert len(result.improvements) == 2

    def test_within_threshold_not_flagged(self):
        new = throughput_artifact()
        new["workloads"][0]["engines"]["fast"]["mb_per_s"] = 9.0  # -10%
        result = diff_artifacts(throughput_artifact(), new,
                                threshold=DEFAULT_THRESHOLD)
        assert result.ok and not result.improvements

    def test_dropped_workload_fails_check(self):
        new = throughput_artifact()
        new["workloads"].pop()  # nasa disappears
        result = diff_artifacts(throughput_artifact(), new)
        assert not result.ok
        assert ("nasa@2000000", "fast.seconds") in result.dropped

    def test_added_workload_is_informational(self):
        old = throughput_artifact()
        old["workloads"].pop()
        result = diff_artifacts(old, throughput_artifact())
        assert result.ok
        assert ("nasa@2000000", "fast.mb_per_s") in result.added

    def test_schema_mismatch_reported(self):
        new = throughput_artifact()
        new["schema_version"] = 2
        result = diff_artifacts(throughput_artifact(), new)
        assert not result.ok
        assert "schema_version" in result.schema_mismatch

    def test_kind_mismatch_reported(self):
        result = diff_artifacts(throughput_artifact(), memory_artifact())
        assert not result.ok
        assert "bench kind" in result.schema_mismatch

    def test_zero_baseline_does_not_crash(self):
        delta = Delta("w", "seconds", 0.0, 0.5, 0.2)
        assert delta.ratio == float("inf")
        assert delta.regressed

    def test_latency_growth_is_a_regression(self):
        new = copy.deepcopy(latency_artifact())
        new["workloads"][1]["delivery_p99_seconds"] = 0.02  # ~5x worse
        result = diff_artifacts(latency_artifact(), new)
        assert not result.ok
        flagged = {(d.workload, d.metric) for d in result.regressions}
        assert ("subs10@20docs", "delivery_p99_seconds") in flagged

    def test_latency_drop_is_an_improvement(self):
        new = copy.deepcopy(latency_artifact())
        new["workloads"][0]["delivery_p50_seconds"] = 0.0001
        result = diff_artifacts(latency_artifact(), new)
        assert result.ok
        improved = {(d.workload, d.metric) for d in result.improvements}
        assert ("subs1@20docs", "delivery_p50_seconds") in improved

    def test_render_mentions_regressions(self):
        new = throughput_artifact()
        new["workloads"][0]["engines"]["fast"]["seconds"] = 1.0
        result = diff_artifacts(throughput_artifact(), new)
        text = render(result, "old", "new")
        assert "REGRESSED" in text
        assert "fast.seconds" in text


class TestCli:
    def _write(self, tmp_path, name, artifact):
        path = tmp_path / name
        path.write_text(json.dumps(artifact))
        return str(path)

    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", throughput_artifact())
        bad = throughput_artifact()
        bad["workloads"][0]["engines"]["fast"]["mb_per_s"] = 4.0
        new = self._write(tmp_path, "new.json", bad)
        hist = str(tmp_path / "hist.jsonl")
        rc = diff_main([old, new, "--check", "--history", hist])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_self_compare_exits_zero_and_appends_history(self, tmp_path,
                                                         capsys):
        old = self._write(tmp_path, "old.json", throughput_artifact())
        new = self._write(tmp_path, "new.json", throughput_artifact())
        hist = tmp_path / "hist.jsonl"
        rc = diff_main([old, new, "--check", "--history", str(hist)])
        assert rc == 0
        records = [json.loads(line)
                   for line in hist.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["type"] == "bench-diff"
        assert records[0]["ok"] is True
        assert records[0]["threshold"] == DEFAULT_THRESHOLD

    def test_no_history_flag(self, tmp_path):
        old = self._write(tmp_path, "old.json", throughput_artifact())
        rc = diff_main([old, old, "--no-history",
                        "--history", str(tmp_path / "hist.jsonl")])
        assert rc == 0
        assert not (tmp_path / "hist.jsonl").exists()

    def test_without_check_regression_still_exits_zero(self, tmp_path):
        old = self._write(tmp_path, "old.json", throughput_artifact())
        bad = throughput_artifact()
        bad["workloads"][0]["engines"]["fast"]["mb_per_s"] = 1.0
        new = self._write(tmp_path, "new.json", bad)
        rc = diff_main([old, new, "--no-history"])
        assert rc == 0

    def test_missing_artifacts_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = diff_main(["--no-history"])
        assert rc == 2
        assert "no BENCH" in capsys.readouterr().err

    def test_tighter_threshold_flags_small_move(self, tmp_path):
        old = self._write(tmp_path, "old.json", throughput_artifact())
        near = throughput_artifact()
        near["workloads"][0]["engines"]["fast"]["mb_per_s"] = 9.0  # -10%
        new = self._write(tmp_path, "new.json", near)
        assert diff_main([old, new, "--check", "--no-history"]) == 0
        assert diff_main([old, new, "--check", "--no-history",
                          "--threshold", "0.05"]) == 1

    def test_dispatched_from_bench_main(self, tmp_path):
        from repro.bench.__main__ import main as bench_main
        old = self._write(tmp_path, "old.json", throughput_artifact())
        rc = bench_main(["diff", old, old, "--no-history"])
        assert rc == 0


class TestGitBaseline:
    def test_head_spec_loads_committed_artifact(self):
        # The repo commits BENCH_throughput.json; HEAD:path must load it.
        artifact = load_artifact("HEAD:BENCH_throughput.json",
                                 repo_root=".")
        assert artifact["bench"] == "throughput"

    def test_bad_ref_raises(self):
        with pytest.raises(FileNotFoundError):
            load_artifact("HEAD:no/such/artifact.json", repo_root=".")

    def test_history_record_shape(self, tmp_path):
        result = diff_artifacts(throughput_artifact(),
                                throughput_artifact())
        hist = tmp_path / "h.jsonl"
        append_history([("a.json", result)], "HEAD", "working tree",
                       0.2, path=str(hist))
        record = json.loads(hist.read_text())
        assert record["artifacts"]["a.json"]["ok"] is True
        assert record["baseline"] == "HEAD"
