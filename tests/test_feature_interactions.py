"""Cross-feature interactions: the places where two mechanisms meet."""

import pytest

import repro
from repro.xsq.engine import XSQEngine
from repro.xsq.nc import XSQEngineNC

from conftest import assert_engines_match_oracle, oracle


class TestAggregatesWithClosures:
    def test_count_dedups_multi_embedding_matches(self):
        # Elements matching via several embeddings count once.
        xml = "<a><a><a><n>x</n></a></a></a>"
        assert XSQEngine("//a//n/count()").run(xml) == ["1"]

    def test_sum_with_failing_embeddings(self):
        xml = ("<g><ok/><g><v>5</v></g></g>")
        # Inner g has no ok; only the outer embedding contributes, and
        # only once.
        assert XSQEngine("//g[ok]//v/sum()").run(xml) == ["5"]

    def test_max_over_closure_matches(self, fig1):
        assert XSQEngine("//price/max()").run(fig1) == ["14"]

    def test_aggregate_gated_by_late_predicate_under_closure(self):
        xml = ("<r><sec><v>10</v><flag/></sec>"
               "<sec><v>90</v></sec></r>")
        assert XSQEngine("//sec[flag]/v/sum()").run(xml) == ["10"]


class TestAttrOutputInteractions:
    def test_attr_output_with_multi_embedding_dedup(self):
        xml = '<a><a id="inner"><b id="7"/></a></a>'
        assert XSQEngine("//a//b/@id").run(xml) == ["7"]

    def test_attr_output_gated_by_not(self):
        xml = '<r><b id="1"><bad/></b><b id="2"/></r>'
        assert XSQEngine("/r/b[not(bad)]/@id").run(xml) == ["2"]

    def test_attr_output_with_or(self):
        xml = '<r><b id="1"><x/></b><b id="2"><y/></b><b id="3"/></r>'
        assert XSQEngine("/r/b[x or y]/@id").run(xml) == ["1", "2"]


class TestElementOutputInteractions:
    def test_element_output_with_path_predicate(self):
        xml = "<r><g><a><b>1</b></a></g><g><a/></g></r>"
        results = XSQEngine("/r/g[a/b]").run(xml)
        assert results == ["<g><a><b>1</b></a></g>"]

    def test_nested_element_output_with_predicates(self):
        # Both the outer and inner sec match; both serialize.
        xml = "<sec><ok/><sec><ok/><p>t</p></sec></sec>"
        results = XSQEngine("//sec[ok]").run(xml)
        assert len(results) == 2
        assert results[0].startswith("<sec><ok></ok><sec>")
        assert results[1] == "<sec><ok></ok><p>t</p></sec>"

    def test_element_output_late_predicate_preserves_full_value(self):
        # The candidate's serialization spans events that arrive while
        # its membership is still unknown.
        xml = "<r><g><p>body</p><flag/></g></r>"
        assert XSQEngine("/r/g[flag]").run(xml) == \
            ["<g><p>body</p><flag></flag></g>"]


class TestWildcardInteractions:
    @pytest.mark.parametrize("query", [
        "//*[@id]/text()",
        "/r/*[v=1]/n/text()",
        "//*[*]/n/text()",
        "/r/*/*/text()",
    ])
    def test_wildcards_everywhere_match_oracle(self, query):
        xml = ('<r><g id="1"><v>1</v><n>a</n></g>'
               "<h><v>2</v><n>b</n></h><n>c</n></r>")
        assert_engines_match_oracle(query, xml)


class TestSchemaUnionAggregateFallback:
    def test_aggregate_union_falls_back_to_xsqf(self):
        from repro.api import UnionEngine
        from repro.streaming.dtd import parse_dtd
        from repro.xsq.schema_opt import optimize
        dtd = parse_dtd("""
            <!ELEMENT lib (shelf*, box*)>
            <!ELEMENT shelf (item*)>
            <!ELEMENT box (item*)>
            <!ELEMENT item (#PCDATA)>
        """, root="lib")
        # Expansion yields two paths, whose aggregate union cannot be
        # merged: the original query runs instead, and stays correct.
        assert optimize(dtd, "//item/count()").is_union
        doc = ("<lib><shelf><item>a</item></shelf>"
               "<box><item>b</item><item>c</item></box></lib>")
        engine = repro.compile("//item/count()", schema=dtd)
        assert not isinstance(engine.engine, UnionEngine)
        assert engine.run(doc) == ["3"]
        forced = repro.compile("//item/count()", engine="f", schema=dtd)
        assert isinstance(forced.engine, XSQEngine)
        assert forced.run(doc) == ["3"]


class TestMultiqueryWithExtensions:
    def test_grouped_queries_using_every_extension(self, fig1):
        from repro.xsq.multiquery import MultiQueryEngine
        queries = [
            "/pub/book[not(author)]/name/text()",
            "/pub/book[@id=1 or @id=2]/name/text()",
            "/pub[book/price]/year/text()",
            "//book//price/max()",
        ]
        grouped = MultiQueryEngine(queries).run(fig1)
        assert grouped == [XSQEngine(q).run(fig1) for q in queries]


class TestNCStreamingAggregates:
    def test_gated_running_count(self):
        xml = "<r><g><i/><i/><ok/></g><g><i/></g></r>"
        values = list(XSQEngineNC("/r/g[ok]/i/count()").iter_results(xml))
        # Both i's of group 1 resolve when <ok> arrives; group 2's is
        # cleared; the final value repeats at end of stream.
        assert values == ["1", "2", "2"]
