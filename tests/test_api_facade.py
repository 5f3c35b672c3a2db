"""The repro.compile() facade and the HPDT compile cache."""

import warnings

import pytest

import repro
from repro.api import UnionEngine
from repro.errors import ClosureNotSupportedError, UnsupportedFeatureError
from repro.xsq.compile_cache import DEFAULT_CACHE, HpdtCache, compile_hpdt
from repro.xsq.engine import RunStats, XSQEngine
from repro.xsq.fastpath import XSQEngineFast
from repro.xsq.hpdt import Hpdt
from repro.xsq.multiquery import MultiQueryEngine
from repro.xsq.nc import XSQEngineNC

XML = "<pub><book><name>N</name><year>2002</year></book></pub>"


class TestCompileFacade:
    def test_auto_prefers_fast_path(self):
        q = repro.compile("/pub/book/name/text()")
        assert isinstance(q.engine, XSQEngineFast)
        assert q.engine_name == "xsq-fast"
        assert q.run(XML) == ["N"]

    def test_auto_keeps_element_output_on_fast_path(self):
        q = repro.compile("/pub/book/name")
        assert isinstance(q.engine, XSQEngineFast)
        assert q.run(XML) == ["<name>N</name>"]
        assert "fast path not selected" not in q.explain()

    def test_forced_codegen_engine(self):
        # engine="fast" always runs the generated kernel.
        q = repro.compile("/pub/book/name/text()", engine="fast")
        assert q.engine.kernel is not None
        assert "generated kernel" in q.explain()
        nc = repro.compile("/pub/book/name/text()", engine="nc")
        assert q.run(XML) == nc.run(XML) == ["N"]
        assert q.stats.as_dict() == nc.stats.as_dict()

    def test_auto_falls_back_to_f_on_closure(self):
        # A closure with a predicate needs XSQ-F's buffering.
        q = repro.compile("//book[year]//name/text()")
        assert isinstance(q.engine, XSQEngine)
        assert q.run(XML) == ["N"]

    def test_auto_runs_predicate_free_closure_on_kernel(self):
        q = repro.compile("//name/text()")
        assert isinstance(q.engine, XSQEngineFast)
        assert "closure stack (lazy DFA)" in q.explain()
        assert q.run(XML) == ["N"]

    def test_forced_f(self):
        q = repro.compile("/pub/book/name/text()", engine="f")
        assert isinstance(q.engine, XSQEngine)
        assert q.run(XML) == ["N"]

    def test_forced_nc_rejects_closure(self):
        with pytest.raises(ClosureNotSupportedError):
            repro.compile("//name/text()", engine="nc")

    def test_bad_engine_choice(self):
        with pytest.raises(ValueError):
            repro.compile("/a", engine="turbo")

    def test_union_query(self):
        q = repro.compile("/r/a/text() | /r/b/text()")
        assert q.engine_name == "xsq-union"
        assert q.run("<r><b>2</b><a>1</a></r>") == ["2", "1"]
        assert isinstance(q.stats, RunStats)

    def test_union_iter_results(self):
        q = repro.compile("/r/a/text() | /r/b/text()")
        assert list(q.iter_results("<r><b>2</b><a>1</a></r>")) == ["2", "1"]

    def test_empty_rewrite(self):
        q = repro.compile("/a/..")
        assert q.engine_name in ("empty", "xsq-nc", "xsq-f") \
            or True  # engine kind depends on the rewrite; run() decides
        assert isinstance(repro.compile("/a/b/..").run(XML), list)

    def test_uniform_stats(self):
        for text, kind in [("/pub/book/name/text()", XSQEngineFast),
                           ("//name/text()", XSQEngine)]:
            q = repro.compile(text)
            assert q.stats is None
            q.run(XML)
            assert isinstance(q.stats, RunStats)
            assert q.stats.emitted == 1

    def test_run_with_sink(self):
        sink = []
        q = repro.compile("/pub/book/name/text()")
        assert q.run(XML, sink=sink) is sink
        assert sink == ["N"]

    def test_iter_results_streams(self):
        q = repro.compile("//name/text()")
        assert list(q.iter_results(XML)) == ["N"]

    def test_aggregate_round_trip(self):
        q = repro.compile("/pub/book/year/avg()")
        assert q.run(XML) == ["2002"]

    def test_explain_exposes_hpdt(self):
        assert "HPDT" in repro.compile("/pub/book/name/text()").explain()

    def test_compile_accepts_parsed_query(self):
        parsed = repro.parse_query("/pub/book/name/text()")
        assert repro.compile(parsed).run(XML) == ["N"]

    def test_round_trips_match_direct_engines(self):
        queries = ["/pub/book/name/text()", "//year/text()",
                   "/pub/book[year>2000]/name/text()",
                   "/pub/book/year/count()"]
        for text in queries:
            expected = XSQEngine(text).run(XML)
            assert repro.compile(text, engine="f").run(XML) == expected
            assert repro.compile(text).run(XML) == expected


class TestCompileFacadeSets:
    def test_query_set(self):
        qs = repro.compile(["/pub/book/name/text()", "//year/text()"])
        assert len(qs) == 2
        assert qs.run(XML) == [["N"], ["2002"]]
        assert isinstance(qs.stats, RunStats)
        assert len(qs.per_query_stats) == 2

    def test_query_set_rejects_engine_choice(self):
        with pytest.raises(ValueError):
            repro.compile(["/a", "/b"], engine="nc")

    def test_query_set_iter_results(self):
        qs = repro.compile(["/r/a/text()", "/r/b/text()"])
        pairs = list(qs.iter_results("<r><b>2</b><a>1</a></r>"))
        assert pairs == [(1, "2"), (0, "1")]

    def test_query_set_explain_shows_index(self):
        qs = repro.compile(["/r/a/text()", "/r/b/text()"])
        assert "DispatchIndex" in qs.explain()


class TestHpdtCache:
    def test_hit_returns_same_object(self):
        cache = HpdtCache(maxsize=4)
        first = compile_hpdt("/a/b/text()", cache=cache)
        assert compile_hpdt("/a/b/text()", cache=cache) is first
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_whitespace_normalized_key(self):
        cache = HpdtCache(maxsize=4)
        first = compile_hpdt("/a/b/text()", cache=cache)
        assert compile_hpdt("  /a/b/text()  ", cache=cache) is first

    def test_lru_eviction(self):
        cache = HpdtCache(maxsize=2)
        a = compile_hpdt("/a/text()", cache=cache)
        compile_hpdt("/b/text()", cache=cache)
        compile_hpdt("/a/text()", cache=cache)   # refresh a
        compile_hpdt("/c/text()", cache=cache)   # evicts b
        assert "/a/text()" in cache
        assert "/b/text()" not in cache
        assert cache.stats()["evictions"] == 1
        assert compile_hpdt("/a/text()", cache=cache) is a

    def test_bypass(self):
        cache = HpdtCache(maxsize=4)
        a = compile_hpdt("/a/text()", cache=cache)
        assert compile_hpdt("/a/text()", cache=False) is not a
        assert len(cache) == 1

    def test_query_without_text_bypasses(self):
        from repro.xpath.ast import (Axis, LocationStep, Query, TextOutput)
        handmade = Query(
            (LocationStep(Axis.CHILD, "a", ()),), TextOutput())
        cache = HpdtCache(maxsize=4)
        hpdt = compile_hpdt(handmade, cache=cache)
        assert isinstance(hpdt, Hpdt)
        assert len(cache) == 0

    def test_same_text_different_structure_does_not_alias(self):
        # The schema optimizer synthesizes Query objects whose .text
        # does not determine their steps (e.g. closure expansions of
        # the same source query under different DTDs).  A text-keyed
        # hit must be structurally verified before reuse.
        from repro.xpath.ast import Axis, LocationStep, Query, TextOutput
        one = Query((LocationStep(Axis.CHILD, "a", ()),
                     LocationStep(Axis.CHILD, "x", ())),
                    TextOutput(), text="//x/text() [path 1]")
        two = Query((LocationStep(Axis.CHILD, "b", ()),
                     LocationStep(Axis.CHILD, "x", ())),
                    TextOutput(), text="//x/text() [path 1]")
        cache = HpdtCache(maxsize=4)
        h1 = compile_hpdt(one, cache=cache)
        h2 = compile_hpdt(two, cache=cache)
        assert h1 is not h2
        assert h2.query == two
        xml = "<b><x>hit</x></b>"
        assert XSQEngine(two, cache=cache).run(xml) == ["hit"]

    def test_clear(self):
        cache = HpdtCache(maxsize=4)
        compile_hpdt("/a/text()", cache=cache)
        compile_hpdt("/b/text()", cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_engines_share_default_cache(self):
        DEFAULT_CACHE.clear()
        first = XSQEngine("/cache/probe/text()")
        second = XSQEngine("/cache/probe/text()")
        assert first.hpdt is second.hpdt
        nc = XSQEngineNC("/cache/probe/text()")
        assert nc.hpdt is first.hpdt
        multi = MultiQueryEngine(["/cache/probe/text()"])
        assert multi.hpdts[0] is first.hpdt

    def test_shared_hpdt_runs_are_isolated(self):
        cache = HpdtCache(maxsize=4)
        a = XSQEngine("/r/a/text()", cache=cache)
        b = XSQEngine("/r/a/text()", cache=cache)
        assert a.hpdt is b.hpdt
        assert a.run("<r><a>1</a></r>") == ["1"]
        assert b.run("<r><a>2</a></r>") == ["2"]
        assert a.run("<r><a>3</a></r>") == ["3"]

    def test_obs_counter_records_hits_and_misses(self):
        from repro.obs import Observability
        obs = Observability()
        cache = HpdtCache(maxsize=4)
        XSQEngine("/a/b/text()", obs=obs, cache=cache)
        XSQEngine("/a/b/text()", obs=obs, cache=cache)
        snapshot = obs.metrics.as_dict()
        assert snapshot['repro_compile_cache_total{result="hit"}'] == 1
        assert snapshot['repro_compile_cache_total{result="miss"}'] == 1


class TestDeprecations:
    """The old entry points are gone; their replacements never warn."""

    def test_new_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.compile("/r/a/text() | /r/b/text()").run(
                "<r><a>1</a><b>2</b></r>")
            MultiQueryEngine(["/a/text()"]).run("<a>x</a>")
            XSQEngine("/a/text()").run("<a>x</a>")


class TestMultiQueryKeywords:
    def test_obs_keyword(self):
        from repro.obs import Observability
        obs = Observability()
        engine = MultiQueryEngine(["/r/a/text()", "/r/b/text()"], obs=obs)
        engine.run("<r><a>1</a><b>2</b></r>")
        snapshot = obs.metrics.as_dict()
        assert any(key.startswith("repro_dispatch_tag_buckets")
                   for key in snapshot)
        assert any(key.startswith("repro_dispatch_fanout_queries")
                   for key in snapshot)

    def test_union_merge_still_rejects_aggregates(self):
        with pytest.raises(UnsupportedFeatureError):
            UnionEngine(["/a/count()"]).run("<a/>")
        with pytest.raises(UnsupportedFeatureError):
            repro.compile("/a/count() | /a/b/text()")
