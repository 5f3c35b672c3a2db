"""Grouped multi-query execution (the paper's Section 5 suggestion)."""

import pytest

import repro
from repro.api import UnionEngine
from repro.errors import UnsupportedFeatureError
from repro.xsq.engine import XSQEngine
from repro.xsq.multiquery import MultiQueryEngine

from conftest import oracle


class TestPerQueryResults:
    def test_each_query_gets_its_own_results(self, fig1):
        queries = ["/pub/book/name/text()", "/pub/year/text()",
                   "/pub/book/@id"]
        merged = MultiQueryEngine(queries).run(fig1)
        assert merged == [XSQEngine(q).run(fig1) for q in queries]

    def test_mixed_with_aggregates(self, fig1):
        queries = ["/pub/book/count()", "/pub/book/price/sum()",
                   "/pub/book/name/text()"]
        results = MultiQueryEngine(queries).run(fig1)
        assert results == [["2"], ["48"], ["First", "Second"]]

    def test_closures_and_predicates(self, fig2):
        queries = ["//pub[year=2002]//book[author]//name",
                   "//name/text()"]
        results = MultiQueryEngine(queries).run(fig2)
        assert results[0] == ["<name>X</name>", "<name>Z</name>"]
        assert results[1] == ["X", "Y", "Z"]

    def test_single_pass_shares_events(self, fig1):
        engine = MultiQueryEngine(["/pub/book/name/text()",
                                   "/pub/year/text()"])
        engine.run(fig1)
        # Both member runtimes saw exactly the same event count.
        counts = {stats.events for stats in engine.last_stats}
        assert len(counts) == 1

    def test_equivalent_to_individual_runs_on_dataset(self):
        from repro.datagen import generate_dblp
        xml = generate_dblp(20_000)
        queries = ["/dblp/article/title/text()",
                   "/dblp/inproceedings[author]/title/text()",
                   "/dblp/article/year/text()"]
        grouped = MultiQueryEngine(queries).run(xml)
        assert grouped == [XSQEngine(q).run(xml) for q in queries]

    def test_rejects_empty_query_list(self):
        with pytest.raises(ValueError):
            MultiQueryEngine([])

    def test_engine_reusable(self, fig1):
        engine = MultiQueryEngine(["/pub/year/text()"])
        assert engine.run(fig1) == engine.run(fig1)


class TestMergedResults:
    def test_merge_preserves_document_order(self, fig1):
        # year comes after both books in fig1.
        merged = UnionEngine(["/pub/year/text()",
                              "/pub/book/name/text()"]).run(fig1)
        assert merged == ["First", "Second", "2002"]

    def test_merge_interleaved(self):
        xml = "<r><a>1</a><b>2</b><a>3</a><b>4</b></r>"
        merged = UnionEngine(["/r/a/text()", "/r/b/text()"]).run(xml)
        assert merged == ["1", "2", "3", "4"]

    def test_merge_with_buffered_predicates(self):
        # Items resolve late but must still merge in document order.
        xml = ("<r><g><a>1</a><b>2</b><ok/></g>"
               "<g><a>3</a><b>4</b><ok/></g></r>")
        merged = UnionEngine(["/r/g[ok]/a/text()",
                              "/r/g[ok]/b/text()"]).run(xml)
        assert merged == ["1", "2", "3", "4"]

    def test_merge_equals_union_oracle(self, fig2):
        queries = ["//book/name/text()", "//pub/year/text()"]
        merged = UnionEngine(queries).run(fig2)
        # The union in document order, computed independently: fig2's
        # text values in stream order restricted to the two queries.
        assert merged == ["X", "Y", "Z", "1999", "2002"]

    def test_merge_rejects_aggregates(self, fig1):
        with pytest.raises(UnsupportedFeatureError):
            UnionEngine(["/pub/book/count()",
                         "/pub/year/text()"]).run(fig1)

    def test_merged_disjoint_closure_paths(self):
        # The schema optimizer's use case: union of expanded paths.
        xml = ("<lib><shelf><book><t>A</t></book></shelf>"
               "<box><book><t>B</t></book></box></lib>")
        merged = UnionEngine(["/lib/shelf/book/t/text()",
                              "/lib/box/book/t/text()"]).run(xml)
        assert merged == ["A", "B"]


class TestUnionIsNodeSet:
    """``|`` is a node-set union: a node that several branches select
    with the same output is returned once, in document order."""

    XML = ('<r><a id="x">1</a><b id="z">2</b>'
           '<a id="y">3<a id="w">4</a></a></r>')

    @pytest.mark.parametrize("union,expected", [
        # overlapping text() branches
        ("/r/a/text() | //a/text()", ["1", "3", "4"]),
        ("/r/*/text() | /r/b/text()", ["1", "2", "3"]),
        ("//a//a/text() | //a/text() | /r/*/text()", ["1", "2", "3", "4"]),
        # overlapping @attr branches
        ("/r/a/@id | //a/@id", ["x", "y", "w"]),
        ("/r/*/@id | //a/@id", ["x", "z", "y", "w"]),
        # overlapping element-output branches
        ("/r/a | //a", ['<a id="x">1</a>', '<a id="y">3<a id="w">4</a></a>',
                        '<a id="w">4</a>']),
        # identical branches
        ("/r/a/text() | /r/a/text()", ["1", "3"]),
        ("//a | //a", ['<a id="x">1</a>', '<a id="y">3<a id="w">4</a></a>',
                       '<a id="w">4</a>']),
        # one node, different outputs: both kept
        ("/r/a/@id | /r/a/text()", ["x", "1", "y", "3"]),
    ])
    def test_shared_nodes_returned_once(self, union, expected):
        compiled = repro.compile(union)
        assert compiled.run(self.XML) == expected
        assert list(compiled.iter_results(self.XML)) == expected
        session = compiled.push()
        for index in range(0, len(self.XML), 7):
            assert session.feed(self.XML[index:index + 7]) == []
        assert session.finish() == expected

    def test_branch_stats_unchanged(self):
        # Deduplication is of the merged list only: each member still
        # reports every item it emitted.
        engine = UnionEngine(["/r/a/text()", "//a/text()"])
        assert engine.run(self.XML) == ["1", "3", "4"]
        assert [run.emitted for run in engine.last_stats] == [2, 3]



class TestUnionLowering:
    """A union lowers like any query group, once, at construction: each
    branch on its generated kernel (closure-stack kernels included), or
    on XSQ-F when it has none."""

    DTD = """
        <!ELEMENT lib (shelf*, box*)>
        <!ELEMENT shelf (item*)>
        <!ELEMENT box (item*)>
        <!ELEMENT item (#PCDATA)>
    """
    DOC = ("<lib><shelf><item>s1</item></shelf>"
           "<box><item>b1</item></box></lib>")

    @pytest.fixture
    def lowerings(self, monkeypatch):
        import repro.xsq.codegen as codegen
        import repro.xsq.multiquery as multiquery
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(codegen, "compile_kernel",
                            counting(codegen.compile_kernel))
        monkeypatch.setattr(multiquery, "compile_fastplan",
                            counting(multiquery.compile_fastplan))
        return calls

    def test_bar_union_lowers_child_branches_to_kernels(self, lowerings):
        compiled = repro.compile("/lib/shelf/item/text() | //item/text()",
                                 cache=False)
        assert isinstance(compiled.engine, UnionEngine)
        assert compiled.engine.member_runtimes == ["kernel", "kernel"]
        assert compiled.engine.member_fallbacks == [None, None]
        assert compiled.run(self.DOC) == ["s1", "b1"]
        session = compiled.push()
        assert session.feed(self.DOC) == []
        assert session.finish() == ["s1", "b1"]
        # Both branches are lowered and code-generated, the closure
        # branch to its closure-stack kernel.
        assert lowerings.count("compile_fastplan") == 2
        assert lowerings.count("compile_kernel") == 2
        assert repro.compile(
            "/dblp/article/title/text() | /dblp/inproceedings/title/text()"
        ).engine.member_runtimes == ["kernel", "kernel"]

    def test_schema_expanded_union_lowers_to_kernels(self, lowerings):
        from repro.streaming.dtd import parse_dtd
        dtd = parse_dtd(self.DTD, root="lib")
        # A predicate closure has no kernel of its own, so the schema
        # expands it into a union, whose child-axis branches do.
        compiled = repro.compile("//*[item]/item/text()", schema=dtd,
                                 cache=False)
        assert isinstance(compiled.engine, UnionEngine)
        assert compiled.engine.member_runtimes == ["kernel", "kernel"]
        assert compiled.run(self.DOC) == ["s1", "b1"]
        assert lowerings.count("compile_kernel") == 2

    def test_explain_names_the_lowering(self):
        notes = repro.compile(
            "/r/a/text() | //a/text() | //a[@id]/text()").explain()
        assert "member 0: /r/a/text() — kernel (generated kernel" in notes
        assert ("member 1: //a/text() — kernel (generated kernel: "
                "1-step path") in notes
        assert ("member 2: //a[@id]/text() — xsq-f "
                "(fast path not selected: closure-predicate)") in notes
