"""Execution profiler: per-phase attribution and EXPLAIN ANALYZE output.

The profiler's contract: it never changes results, phases sum to what
the run actually cost (coverage), the queue proxy is transparent, the
fast path samples instead of instrumenting every event, and every
rendering (table / folded stacks / JSON / Fig 18) agrees with the raw
numbers.
"""

import json

import pytest

import repro
from repro.api import select_engine
from repro.obs import Observability, Profiler, ProfileReport, profile_query
from repro.obs.profile import _ProfiledQueue


DOC = ("<pub>"
       + "".join("<book><title>t%d</title><price>%d</price></book>"
                 % (i, 4 + i % 10) for i in range(120))
       + "<year>2002</year></pub>")
QUERY = "/pub/book[price<8]/title/text()"  # non-closure: runs on xsq-nc too
EXPECTED = [["t%d" % i] for i in range(120) if 4 + i % 10 < 8]
FLAT = [text for group in EXPECTED for text in group]


def run_profiled(engine_choice, query=QUERY, doc=DOC, **kwargs):
    return profile_query(query, doc, engine=engine_choice, **kwargs)


class TestPhaseAttribution:
    @pytest.mark.parametrize("engine_choice", ["f", "nc", "fast"])
    def test_results_unchanged_by_profiling(self, engine_choice):
        plain = select_engine(QUERY, choice=engine_choice).run(DOC)
        # events=False: the fast path rejects per-event tracing, and
        # profiling must compose with it on every engine.
        obs = Observability(events=False, profile=True)
        profiled = select_engine(QUERY, choice=engine_choice,
                                 obs=obs).run(DOC)
        assert profiled == plain == FLAT

    @pytest.mark.parametrize("engine_choice", ["f", "nc", "fast"])
    def test_core_phases_present_and_positive(self, engine_choice):
        report = run_profiled(engine_choice)
        assert report.results == len(FLAT)
        assert report.events > 0
        for phase in ("compile", "parse", "automaton"):
            seconds, count = report.phases[phase]
            assert seconds > 0, phase
            assert count > 0, phase
        assert report.attributed_seconds > 0
        assert 0 < report.coverage <= 1.0

    @pytest.mark.parametrize("engine_choice", ["f", "nc"])
    def test_interpreted_buffer_and_predicate_phases(self, engine_choice):
        report = run_profiled(engine_choice)
        # The query buffers titles behind a price predicate: both the
        # predicate scan and the queue traffic must show up.
        assert report.phases["predicate"][1] > 0
        assert report.phases["buffer"][1] > 0
        assert report.phases["output"][1] > 0
        # match = automaton minus nested child phases, clamped >= 0.
        assert report.match_seconds() >= 0

    def test_parse_automaton_sum_to_loop_wall(self):
        # The consecutive-timestamp pump leaves no gap between parse
        # and automaton windows, so together they bound the stream loop
        # from below and attribution covers most of the wall clock.
        report = run_profiled("f")
        assert report.attributed_seconds <= report.wall * 1.05
        assert report.coverage > 0.5  # tiny doc: fixed overheads remain

    def test_per_state_and_per_tag_tables(self):
        report = run_profiled("f")
        assert report.states  # (engine, matched_steps) -> time
        assert all(engine == "xsq-f" for engine, _ in report.states)
        tags = dict(report.tags)
        assert "book" in tags and "title" in tags

    def test_wrapped_queue_is_transparent(self):
        class FakeQueue:
            def __init__(self):
                self.calls = []

            def new_item(self, item):
                self.calls.append(("new_item", item))

            def upload(self):
                self.calls.append(("upload", None))

            def flush(self):
                self.calls.append(("flush", None))

            def __len__(self):
                return 7

        prof = Profiler()
        inner = FakeQueue()
        proxy = _ProfiledQueue(inner, prof)
        proxy.new_item("x")
        proxy.upload()
        proxy.flush()  # not a hot op: delegated untimed via __getattr__
        assert inner.calls == [("new_item", "x"), ("upload", None),
                               ("flush", None)]
        assert len(proxy) == 7
        assert prof.phases["buffer"][1] == 2  # new_item + upload timed


class TestFastPathSampling:
    def test_sampling_metadata_and_scaling(self):
        report = run_profiled("fast", sample_interval=2)
        assert report.sampling is not None
        assert report.sampling["interval"] == 2
        assert 0 < report.sampling["sampled_events"] <= report.events
        assert report.sampling["scale"] >= 1.0
        # Sampled sub-phases are estimates scaled up by events/sampled.
        assert report.phases["parse"][1] == report.events

    def test_interval_one_samples_every_batch(self):
        sampled = run_profiled("fast", sample_interval=1)
        assert sampled.sampling["sampled_events"] == sampled.events
        assert sampled.sampling["scale"] == pytest.approx(1.0)

    def test_fast_results_match_interpreted(self):
        fast = run_profiled("fast")
        interp = run_profiled("f")
        assert fast.results == interp.results == len(FLAT)
        assert fast.events == interp.events


class TestRenderings:
    def test_render_mentions_phases_and_coverage(self):
        text = run_profiled("f").render()
        assert "EXPLAIN ANALYZE" in text
        assert "automaton" in text and "parse" in text
        assert "attributed:" in text
        assert "buffer ops:" in text

    def test_folded_stacks_parse(self):
        folded = run_profiled("f").folded()
        for line in folded.splitlines():
            frames, _, weight = line.rpartition(" ")
            assert int(weight) >= 0
            assert frames.startswith("xsq-f;")

    def test_as_dict_round_trips_through_json(self):
        report = run_profiled("nc")
        data = json.loads(json.dumps(report.as_dict()))
        assert data["type"] == "profile"
        assert data["engine"] == "xsq-nc"
        assert data["results"] == len(FLAT)
        assert set(data["phases"]) >= {"compile", "parse", "automaton"}
        assert data["coverage"] == pytest.approx(report.coverage)

    def test_fig18_shares_sum_to_100(self):
        for choice in ("f", "nc", "fast"):
            shares = run_profiled(choice).fig18()
            assert set(shares) == {"parse", "automaton", "buffer"}
            assert sum(shares.values()) == pytest.approx(100.0)
            assert all(value >= 0 for value in shares.values())
        assert "parse" in run_profiled("f").render_fig18()

    def test_diff_compares_two_reports(self):
        first = run_profiled("f")
        second = run_profiled("fast")
        text = first.diff(second)
        assert "xsq-f" in text and "xsq-fast" in text


class TestMultiQueryProfiling:
    QUERIES = ["//book/title/text()", "//year/text()"]

    def test_per_query_attribution(self):
        report = profile_query(self.QUERIES, DOC)
        labels = {row["query"] for row in report.as_dict()["queries"]}
        assert labels == set(self.QUERIES)
        assert all(seconds >= 0
                   for seconds, _ in report.queries.values())

    def test_compiled_query_profile_method(self):
        report = repro.compile(QUERY, engine="f").profile(DOC)
        assert isinstance(report, ProfileReport)
        assert report.results == len(FLAT)

    def test_compiled_query_set_profile_method(self):
        report = repro.compile(self.QUERIES).profile(DOC)
        assert len(report.queries) == 2

    MIXED = ["/pub/book/title/text()", "//year/text()",
             "/pub/book[price<8]/title/text()",
             "//book[price<8]/title/text()", "/pub/book/count()"]

    def test_profiled_set_keeps_its_kernels(self):
        """A profiler changes neither which runtime serves each member
        nor what it computes, and times the kernel members too."""
        plain = repro.compile(self.MIXED)
        expected = plain.run(DOC)
        expected_stats = [stats.as_dict() for stats in plain.per_query_stats]
        runtimes = plain.engine.member_runtimes
        assert runtimes == ["kernel", "kernel", "kernel", "xsq-f", "kernel"]
        obs = Observability(events=False, profile=True)
        profiled = repro.compile(self.MIXED, obs=obs)
        assert profiled.engine.member_runtimes == runtimes
        assert profiled.run(DOC) == expected
        assert [stats.as_dict()
                for stats in profiled.per_query_stats] == expected_stats
        report = obs.profiler.report()
        assert set(report.queries) == set(self.MIXED)
        for query, runtime in zip(self.MIXED, runtimes):
            if runtime == "kernel":
                assert report.queries[query][0] > 0, query

    def test_profiled_kernel_members_time_their_buffer_ops(self):
        obs = Observability(events=False, profile=True)
        kernels = repro.compile(self.MIXED[:3], obs=obs)
        assert set(kernels.engine.member_runtimes) == {"kernel"}
        kernels.run(DOC)
        assert obs.profiler.phases["buffer"][1] > 0

    def test_profile_query_times_every_member(self):
        report = profile_query(self.MIXED, DOC)
        assert set(report.queries) == set(self.MIXED)
        assert report.results == sum(
            len(values) for values in repro.compile(self.MIXED).run(DOC))


class TestObservabilityIntegration:
    def test_profiler_off_by_default(self):
        obs = Observability()
        assert obs.profiler is None
        engine = select_engine(QUERY, choice="f", obs=obs)
        engine.run(DOC)
        # No proxy, no prof hook: the plain path stayed plain.

    def test_profile_report_in_jsonl(self):
        obs = Observability(profile=True)
        select_engine(QUERY, choice="f", obs=obs).run(DOC)
        records = [json.loads(line) for line in obs.jsonl_lines()]
        assert any(record.get("type") == "profile" for record in records)

    def test_custom_profiler_instance(self):
        prof = Profiler(sample_interval=8)
        obs = Observability(events=False, profile=prof)
        assert obs.profiler is prof
        select_engine(QUERY, choice="fast", obs=obs).run(DOC)
        assert prof.events > 0
