"""Property-style equivalence: shared dispatch vs independent engines.

The shared dispatch index (repro.xsq.dispatch) must be a pure
optimization: for ANY query set, MultiQueryEngine's per-query results
must be identical to running each query in its own XSQEngine and to the
DOM oracle, and the merged union must be the oracle's node-set union in
document order, however it is driven.  These tests check that over
datagen-generated workloads (closures, wildcards and predicates sharing
prefixes) and over handcrafted documents that specifically attack the
sparse-stack adjacency guards.
"""

import pytest

from repro.api import PushSession, UnionEngine
from repro.baselines.dom import build_dom, evaluate, match_elements
from repro.datagen.dblp import generate_dblp
from repro.datagen.queries import TagGraph, QueryWorkloadGenerator
from repro.xpath.ast import ElementOutput, TextOutput
from repro.xpath.parser import parse_query
from repro.xsq.engine import XSQEngine
from repro.xsq.multiquery import MultiQueryEngine


def independent_runs(queries, xml):
    return [XSQEngine(query).run(xml) for query in queries]


def oracle_runs(queries, xml):
    document = build_dom(xml)
    return [evaluate(document, query) for query in queries]


def oracle_union(queries, xml):
    """The DOM oracle over ``q1 | ... | qN`` (``text()`` or element
    branches): one value per distinct node, in document order."""
    document = build_dom(xml)
    values = {}
    for text in queries:
        query = parse_query(text)
        for element in match_elements(document, query):
            if isinstance(query.output, TextOutput):
                values.update(zip(document.text_positions(element),
                                  element.texts))
            else:
                assert isinstance(query.output, ElementOutput), text
                values[element.position] = element.serialize()
    return [values[position] for position in sorted(values)]


def assert_equivalent(queries, xml):
    """Shared dispatch == DOM oracle == N independent engines."""
    expected = independent_runs(queries, xml)
    shared = MultiQueryEngine(queries).run(xml)
    assert shared == expected, "shared dispatch diverged"
    assert shared == oracle_runs(queries, xml), "DOM oracle diverged"


class TestHandcraftedSparseGuards:
    """Documents built to confuse a runtime that sees a sparse stack."""

    def test_child_exists_predicate_not_fooled_by_gap(self):
        # <b> exists but only under the skipped <x>; [b] must not fire.
        xml = "<a><x><b/></x><c>C</c></a>"
        assert_equivalent(["/a[b]/c/text()", "/a/c/text()"], xml)

    def test_child_exists_predicate_direct_child_still_fires(self):
        xml = "<a><b/><c>C</c></a>"
        assert_equivalent(["/a[b]/c/text()"], xml)

    def test_child_text_predicate_not_fooled_by_gap(self):
        # category-5: b>5 holds for a grandchild only.
        xml = "<a><x><b>9</b></x><c>C</c></a>"
        assert_equivalent(["/a[b>5]/c/text()", "/a[b<5]/c/text()"], xml)

    def test_child_attr_predicate_not_fooled_by_gap(self):
        xml = '<a><x><b id="1"/></x><c>C</c></a>'
        assert_equivalent(["/a[b@id]/c/text()"], xml)

    def test_closure_then_child_respects_adjacency(self):
        # //a/b: the b under the skipped <y> is NOT a child of a.
        xml = "<r><x><a><y><b>no</b></y><b>yes</b></a></x></r>"
        assert_equivalent(["//a/b/text()"], xml)

    def test_closure_gap_of_arbitrary_depth(self):
        xml = "<r><u><v><w><a><b>deep</b></a></w></v></u><a><b>top</b></a></r>"
        assert_equivalent(["//a/b/text()", "//b/text()", "/r/a/b/text()"],
                          xml)

    def test_path_predicate_not_fooled_by_gap(self):
        # [b/c] needs b as a direct child; here b hides under <x>.
        xml = "<a><x><b><c/></b></x><d>D</d></a>"
        assert_equivalent(["/a[b/c]/d/text()"], xml)

    def test_path_predicate_direct_match(self):
        xml = "<a><b><c/></b><d>D</d></a>"
        assert_equivalent(["/a[b/c]/d/text()"], xml)

    def test_shared_prefix_queries_stay_independent(self):
        xml = ("<pub><book><name>N1</name><year>1999</year></book>"
               "<book><name>N2</name><year>2003</year></book></pub>")
        assert_equivalent([
            "/pub/book/name/text()",
            "/pub/book[year>2000]/name/text()",
            "/pub/book/year/text()",
            "//name/text()",
        ], xml)

    def test_wildcard_member_is_greedy(self):
        xml = "<r><a>1</a><b>2</b><c><d>3</d></c></r>"
        assert_equivalent(["/r/*/text()", "/r/a/text()", "//d/text()"], xml)

    def test_wildcard_inside_predicate(self):
        xml = "<r><a><x/>1</a><b>2</b></r>"
        assert_equivalent(["/r/a[*]/text()", "/r/b/text()"], xml)

    def test_element_output_member_serializes_skipped_tags(self):
        # The element-output query must reproduce <x> even though no
        # query names x: it rides the greedy bucket.
        xml = "<r><a><x>inner</x></a><b>2</b></r>"
        assert_equivalent(["/r/a", "/r/b/text()"], xml)

    def test_attribute_output_and_begin_predicates(self):
        xml = '<r><a id="i1"><b/></a><a id="i2"/></r>'
        assert_equivalent(["/r/a/@id", "/r/a[@id]/b", "/r/a[b]/@id"], xml)

    def test_aggregate_members(self):
        xml = "<r><a>1</a><a>2</a><b>9</b></r>"
        assert_equivalent(["/r/a/count()", "/r/a/sum()", "/r/b/text()"],
                          xml)

    def test_text_events_route_to_enclosing_tag(self):
        # Mixed content: text directly inside <a> interleaved with
        # skipped children.
        xml = "<r><a>one<x>skip</x>two</a></r>"
        assert_equivalent(["/r/a/text()", "//x/text()"], xml)

    def test_repeated_tag_at_multiple_depths(self):
        xml = "<a><a><b>inner</b></a><b>outer</b></a>"
        assert_equivalent(["/a/b/text()", "/a/a/b/text()", "//a/b/text()"],
                          xml)


def pushed_union(queries, xml, size=5):
    """The union from a push session fed ``size``-character chunks."""
    session = PushSession(UnionEngine(queries).push())
    out = []
    for start in range(0, len(xml), size):
        out += session.feed(xml[start:start + size])
    return out + session.finish()


class TestMergedEquivalence:
    def test_merged_same_under_both_dispatch_modes(self):
        """run() and a chunked push() session both return the
        oracle's union."""
        xml = ("<r><x><a>1</a></x><b>2</b><x><a>3</a></x><b>4</b></r>")
        queries = ["//a/text()", "/r/b/text()"]
        merged = UnionEngine(queries).run(xml)
        assert merged == oracle_union(queries, xml) == ["1", "2", "3", "4"]
        assert pushed_union(queries, xml) == merged

    def test_merged_document_order_with_sparse_members(self):
        xml = "<r><c>3</c><a>1</a><c>4</c><b>2</b></r>"
        queries = ["/r/a/text()", "/r/b/text()", "/r/c/text()"]
        merged = UnionEngine(queries).run(xml)
        assert merged == ["3", "1", "4", "2"]


class TestMixedKernelUnion:
    """A union whose branches select some of the same nodes gives the
    oracle's node-set union in every mode, whether its branches lower
    to different runtimes (a kernel and XSQ-F) or all to kernels, a
    closure-stack kernel among them."""

    XML = ('<r><a id="x">1</a><b><a>2</a></b>'
           '<a id="y">3<a id="w">4</a></a></r>')

    #: Each union's branches and the runtimes they lower to.
    RUNTIMES = {
        ("/r/a/text()", "//a[@id]/text()"): ["kernel", "xsq-f"],
        ("/r/a", "//a"): ["kernel", "xsq-f"],
        ("/r/a/text()", "//a/text()"): ["kernel", "kernel"],
    }

    @pytest.mark.parametrize("queries", [list(q) for q in RUNTIMES])
    def test_every_mode_matches_oracle(self, queries):
        xml = self.XML
        engine = UnionEngine(queries)
        assert engine.member_runtimes == self.RUNTIMES[tuple(queries)]
        expected = oracle_union(queries, xml)
        assert engine.run(xml) == expected
        assert list(engine.iter_results(xml)) == expected
        for offset in range(len(xml) + 1):
            session = PushSession(engine.push())
            out = session.feed(xml[:offset]) + session.feed(xml[offset:])
            assert out + session.finish() == expected, offset


class TestIterResults:
    def test_pairs_group_back_to_run_results(self):
        xml = "<r><a>1</a><b>2</b><a>3</a></r>"
        queries = ["/r/a/text()", "/r/b/text()", "/r/a/count()"]
        engine = MultiQueryEngine(queries)
        pairs = list(engine.iter_results(xml))
        grouped = [[], [], []]
        for index, value in pairs:
            grouped[index].append(value)
        assert grouped == MultiQueryEngine(queries).run(xml)

    def test_pairs_arrive_in_stream_order(self):
        xml = "<r><b>2</b><a>1</a></r>"
        pairs = list(MultiQueryEngine(
            ["/r/a/text()", "/r/b/text()"]).iter_results(xml))
        assert pairs == [(1, "2"), (0, "1")]


class TestSinksKeyword:
    def test_run_streams_into_caller_sinks(self):
        xml = "<r><a>1</a><b>2</b></r>"
        sinks = [[], []]
        results = MultiQueryEngine(
            ["/r/a/text()", "/r/b/text()"]).run(xml, sinks=sinks)
        assert sinks == [["1"], ["2"]]
        assert results[0] is sinks[0] and results[1] is sinks[1]

    def test_sink_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiQueryEngine(["/a/text()"]).run("<a>1</a>", sinks=[[], []])


class TestGeneratedWorkloads:
    """Randomized equivalence over datagen query workloads."""

    @pytest.fixture(scope="class")
    def sample(self):
        return generate_dblp(target_bytes=30_000, seed=11)

    @pytest.fixture(scope="class")
    def graph(self, sample):
        return TagGraph.from_document(sample)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_plain_path_workload(self, sample, graph, seed):
        queries = [q + "/text()" for q in QueryWorkloadGenerator(
            graph, seed=seed, max_depth=4, closure_probability=0.0,
            wildcard_probability=0.0).workload(8)]
        assert_equivalent(queries, sample)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_closure_workload(self, sample, graph, seed):
        queries = [q + "/text()" for q in QueryWorkloadGenerator(
            graph, seed=seed, max_depth=4, closure_probability=0.5,
            wildcard_probability=0.0).workload(8)]
        assert_equivalent(queries, sample)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_wildcard_and_closure_workload(self, sample, graph, seed):
        queries = [q + "/text()" for q in QueryWorkloadGenerator(
            graph, seed=seed, max_depth=4, closure_probability=0.3,
            wildcard_probability=0.3).workload(8)]
        assert_equivalent(queries, sample)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_predicate_workload(self, sample, graph, seed):
        queries = [q + "/text()" for q in QueryWorkloadGenerator(
            graph, seed=seed, max_depth=4, closure_probability=0.2,
            predicate_probability=0.6).workload(8)]
        assert_equivalent(queries, sample)

    def test_merged_workload(self, sample, graph):
        queries = [q + "/text()" for q in QueryWorkloadGenerator(
            graph, seed=12, max_depth=3, closure_probability=0.3
            ).workload(5)]
        shared = UnionEngine(queries).run(sample)
        assert shared == oracle_union(queries, sample)


class TestSharedStatsContract:
    def test_every_member_reports_full_stream_length(self):
        xml = "<r><a>1</a><b>2</b><c>3</c></r>"
        engine = MultiQueryEngine(["/r/a/text()", "/r/b/text()"])
        engine.run(xml)
        assert len({stats.events for stats in engine.last_stats}) == 1

    def test_dispatch_index_shape(self):
        engine = MultiQueryEngine(["/r/a/text()", "/r/b/text()",
                                   "/r/*/text()"])
        index = engine.index
        assert index.greedy_count == 1
        assert index.bucket_count == 3  # r, a, b
        assert index.route("a") == (0, 2)
        assert index.route("nowhere") == (2,)
