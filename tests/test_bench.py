"""Benchmark harness: adapters, metrics, dataset cache, reports."""

import os

import pytest

from repro.bench.datasets import DatasetCache
from repro.bench.metrics import (
    measure_memory,
    measure_throughput,
    pureparser_seconds,
    relative_throughput,
)
from repro.bench.report import bar, bar_chart, format_table
from repro.bench.systems import ADAPTERS, adapters_for, feature_matrix


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return DatasetCache(str(tmp_path_factory.mktemp("bench")), scale=0.01)


class TestAdapters:
    def test_roster_matches_figure14(self):
        assert list(ADAPTERS) == ["XSQ-F", "XSQ-NC", "XMLTK", "Saxon",
                                  "XQEngine", "Galax", "Joost"]

    def test_feature_matrix_rows(self):
        rows = {row["name"]: row for row in feature_matrix()}
        assert rows["XSQ-F"]["closures"] and rows["XSQ-F"]["streaming"]
        assert not rows["XSQ-NC"]["closures"]
        assert not rows["XMLTK"]["multiple_predicates"]
        assert not rows["Saxon"]["streaming"]
        assert rows["Joost"]["streaming"]
        assert not rows["Joost"]["buffered_predicates"]

    def test_can_run_respects_capabilities(self):
        assert not ADAPTERS["XMLTK"].can_run("/a[b]/c")
        assert ADAPTERS["XMLTK"].can_run("//a/c/text()")
        assert not ADAPTERS["XSQ-NC"].can_run("//a")
        assert ADAPTERS["XSQ-F"].can_run("//a[b]//c/count()")
        assert not ADAPTERS["XMLTK"].can_run("/a/count()")

    def test_adapters_for_filters(self):
        names = [a.name for a in adapters_for("//a[b]/c")]
        assert "XMLTK" not in names
        assert "XSQ-NC" not in names
        assert "XSQ-F" in names

    def test_every_adapter_produces_oracle_results(self, fig1):
        # All engines that can run this predicate query must agree.
        query = "/pub/book[@id=1]/name/text()"
        for adapter in adapters_for(query):
            if adapter.name == "Joost":
                continue  # preceding-data semantics differ by design
            assert adapter.run(query, fig1) == ["First"], adapter.name


class TestMetrics:
    def test_measure_throughput_phases(self, cache):
        path = cache.path("shake")
        run = measure_throughput(ADAPTERS["Saxon"],
                                 "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
                                 path)
        assert run.seconds > 0
        assert run.result_count > 0
        assert run.preprocess_seconds > 0  # DOM build phase
        assert run.mb_per_second > 0
        total = (run.compile_seconds + run.preprocess_seconds
                 + run.query_seconds)
        assert total == pytest.approx(run.seconds, rel=0.05)

    def test_streaming_adapter_has_no_preprocess(self, cache):
        path = cache.path("shake")
        run = measure_throughput(ADAPTERS["XSQ-F"],
                                 "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
                                 path)
        assert run.preprocess_seconds == pytest.approx(0.0, abs=1e-4)

    def test_timed_run_sees_a_frozen_heap(self, cache):
        # Regression: full collections during a timed run traversed the
        # caller's whole heap, so a test session's 100k live objects
        # added ~0.2 s to every 1 MB run and flattened the figure ratios.
        import gc

        class Probe(type(ADAPTERS["XSQ-NC"])):
            seen = []

            def query(self, engine, source):
                self.seen.append(gc.get_freeze_count())
                return super().query(engine, source)

        path = cache.path("shake")
        held = [[i] for i in range(1000)]
        measure_throughput(Probe(), "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
                           path, repeat=2)
        assert len(Probe.seen) == 2
        assert all(count >= len(held) for count in Probe.seen)
        assert gc.get_freeze_count() == 0
        # A caller's own freeze is left in place.
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            measure_throughput(Probe(),
                               "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()", path)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_relative_throughput_bounded(self, cache):
        path = cache.path("shake")
        base = pureparser_seconds(path)
        run = measure_throughput(ADAPTERS["XSQ-NC"],
                                 "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
                                 path)
        rel = relative_throughput(run, path, baseline_seconds=base)
        assert 0.0 < rel <= 1.0

    def test_relative_throughput_baseline_cached(self, cache, monkeypatch):
        # Regression: without baseline_seconds, the PureParser baseline
        # is measured at most once per input file, not once per system.
        from repro.bench import metrics as bench_metrics
        path = cache.path("shake")
        bench_metrics.clear_baseline_cache()
        real_measure = bench_metrics.measure_throughput
        calls = []

        def counting_measure(adapter, query, source, repeat=1, obs=None):
            calls.append(adapter.name)
            return real_measure(adapter, query, source, repeat=repeat,
                                obs=obs)

        monkeypatch.setattr(bench_metrics, "measure_throughput",
                            counting_measure)
        run = real_measure(ADAPTERS["XSQ-NC"],
                           "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()", path)
        try:
            first = relative_throughput(run, path)
            second = relative_throughput(run, path)
        finally:
            bench_metrics.clear_baseline_cache()
        assert calls == ["PureParser"]
        assert first == second

    def test_measure_memory(self, cache):
        # Fixed interpreter overheads swamp an 80 KB input; use ~1 MB so
        # the DOM-vs-streaming gap is visible.
        path = cache.path("dblp", size_bytes=int(1_000_000 / cache.scale))
        memory = measure_memory(ADAPTERS["XSQ-F"],
                                "/dblp/article/title/text()", path)
        assert memory.peak_alloc_bytes > 0
        assert memory.peak_buffered_items is not None
        dom = measure_memory(ADAPTERS["Saxon"],
                             "/dblp/article/title/text()", path)
        # The DOM engine materializes the document; the streaming engine
        # must use substantially less.
        assert dom.peak_alloc_bytes > 2 * memory.peak_alloc_bytes


class TestDatasetCache:
    def test_generates_once(self, tmp_path):
        cache = DatasetCache(str(tmp_path), scale=0.01)
        path1 = cache.path("colors")
        mtime = os.path.getmtime(path1)
        path2 = cache.path("colors")
        assert path1 == path2
        assert os.path.getmtime(path2) == mtime

    def test_scale_changes_size(self, tmp_path):
        small = DatasetCache(str(tmp_path), scale=0.01).path("colors")
        big = DatasetCache(str(tmp_path), scale=0.02).path("colors")
        assert os.path.getsize(big) > os.path.getsize(small)

    def test_generator_kwargs_in_key(self, tmp_path):
        cache = DatasetCache(str(tmp_path), scale=0.01)
        a = cache.path("ordered", filler_repeats=10)
        b = cache.path("ordered", filler_repeats=20)
        assert a != b

    def test_clear(self, tmp_path):
        cache = DatasetCache(str(tmp_path), scale=0.01)
        cache.path("colors")
        assert cache.clear() >= 1
        assert cache.clear() == 0


class TestReport:
    def test_format_table(self):
        text = format_table(["sys", "val"], [["a", 1.5], ["bb", 2.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "sys" in lines[1]
        assert "1.500" in text

    def test_bar_proportional(self):
        assert len(bar(0.5, 1.0, width=10)) == 5
        assert bar(0.0, 1.0) == ""
        assert len(bar(2.0, 1.0, width=10)) == 10  # clamped

    def test_bar_chart_lines(self):
        chart = bar_chart(["x", "yy"], [0.5, 1.0], title="C", maximum=1.0)
        assert chart.splitlines()[0] == "C"
        assert len(chart.splitlines()) == 3
