"""Reverse-axis rewriting into forward-only queries."""

import pytest

from repro.errors import UnsupportedFeatureError, XPathSyntaxError
from repro.xpath.rewrite import rewrite_reverse_axes, supports_reverse_axes
from repro.xsq.engine import XSQEngine

from conftest import oracle


class TestParentRewrites:
    def test_basic_fold(self):
        query = rewrite_reverse_axes("/pub/book/parent::pub")
        assert repr(query.steps[0]) == "/pub[book]"
        assert len(query.steps) == 1

    def test_dotdot_shorthand(self):
        query = rewrite_reverse_axes("/pub/book/..")
        assert repr(query.steps[0]) == "/pub[book]"

    def test_wildcard_parent_narrows(self):
        query = rewrite_reverse_axes("/*/book/parent::pub")
        assert query.steps[0].node_test == "pub"

    def test_parent_predicates_transfer(self):
        query = rewrite_reverse_axes("/pub/book/parent::pub[year]")
        preds = query.steps[0].predicates
        assert [repr(p) for p in preds] == ["[book]", "[year]"]

    def test_fold_in_the_middle(self):
        query = rewrite_reverse_axes("/lib/pub/book/parent::pub/year/text()")
        assert "".join(repr(s) for s in query.steps) == "/lib/pub[book]/year"

    def test_incompatible_tests_prove_empty(self):
        assert rewrite_reverse_axes("/a/b/parent::c") is None

    def test_parent_of_document_element_is_empty(self):
        assert rewrite_reverse_axes("/a/parent::x") is None

    def test_forward_queries_pass_through(self):
        text = "/pub/book[price<11]/author/text()"
        assert rewrite_reverse_axes(text).text == text

    def test_output_expression_preserved(self):
        query = rewrite_reverse_axes("/pub/book/parent::pub/text()")
        assert repr(query.output) == "/text()"


class TestSelfRewrites:
    def test_self_narrows_wildcard(self):
        query = rewrite_reverse_axes("/pub/*/self::book")
        assert query.steps[1].node_test == "book"

    def test_self_same_test_noop(self):
        query = rewrite_reverse_axes("/pub/book/self::book")
        assert "".join(repr(s) for s in query.steps) == "/pub/book"

    def test_self_conflict_is_empty(self):
        assert rewrite_reverse_axes("/pub/book/self::year") is None

    def test_self_predicates_merge(self):
        query = rewrite_reverse_axes("/pub/book[author]/self::*[price]")
        assert [repr(p) for p in query.steps[1].predicates] == \
            ["[author]", "[price]"]


class TestBoundaries:
    @pytest.mark.parametrize("query", [
        "/a/b/ancestor::x",
        "/a/b/ancestor-or-self::x",
        "/a/b/preceding-sibling::x",
        "/a/b/following::x",
    ])
    def test_inexpressible_axes_rejected(self, query):
        with pytest.raises(UnsupportedFeatureError):
            rewrite_reverse_axes(query)

    def test_parent_after_predicated_step_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            rewrite_reverse_axes("/a/b[x]/parent::a")

    def test_parent_after_closure_step_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            rewrite_reverse_axes("/a//b/parent::a")

    def test_closure_parent_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            rewrite_reverse_axes("/a/b//parent::a")

    def test_parent_after_leading_closure_step_rejected(self):
        # //a's parent can be any element, not the virtual root: the
        # query is inexpressible, not empty.
        with pytest.raises(UnsupportedFeatureError):
            rewrite_reverse_axes("//a/parent::x")

    def test_malformed_query_rejected(self):
        with pytest.raises(XPathSyntaxError):
            rewrite_reverse_axes("a/b")

    def test_detector(self):
        assert supports_reverse_axes("/a/b/parent::a")
        assert supports_reverse_axes("/a/b/..")
        assert supports_reverse_axes("/a/self::a")
        assert supports_reverse_axes("/a/ancestor::b")
        assert not supports_reverse_axes("/a/b[c]/text()")


class TestSemanticsAgainstOracle:
    """The rewritten query must return exactly the elements the reverse
    query denotes, checked by computing the reverse semantics directly
    on the DOM."""

    def test_parent_selects_each_parent_once(self, fig1):
        # /pub/book/parent::pub = the pub (it has book children), once.
        query = rewrite_reverse_axes("/pub/book/parent::pub")
        results = XSQEngine(query).run(fig1)
        assert len(results) == 1
        assert results[0].startswith("<pub>")

    def test_parent_with_filter(self, fig1):
        # Books' parents that have a year child: still the one pub.
        query = rewrite_reverse_axes("/pub/book/parent::*[year]")
        assert len(XSQEngine(query).run(fig1)) == 1

    def test_no_matching_parent(self, fig1):
        query = rewrite_reverse_axes("/pub/magazine/parent::pub")
        assert XSQEngine(query).run(fig1) == []

    def test_equivalent_to_manual_reverse_evaluation(self):
        xml = ("<lib><pub><book/><year>1</year></pub>"
               "<pub><cd/></pub><pub><book/></pub></lib>")
        # /lib/pub/book/parent::pub: pubs 1 and 3.
        query = rewrite_reverse_axes("/lib/pub/book/parent::pub")
        results = XSQEngine(query).run(xml)
        assert results == ["<pub><book></book><year>1</year></pub>",
                           "<pub><book></book></pub>"]


class TestProvablyEmptyOutput:
    """A query the rewrite proves empty still renders its output's value
    over no matches, as every other empty query does."""

    DOC = "<pub><book/></pub>"

    @pytest.mark.parametrize("query, empty_twin", [
        ("/pub/parent::x/count()", "/pub/x/count()"),
        ("/a/b/parent::c/sum()", "/pub/x/sum()"),
        ("/pub/self::x/avg()", "/pub/x/avg()"),
        ("/pub/parent::x/text()", "/pub/x/text()"),
        ("/pub/..", "/pub/x"),
    ])
    def test_run_iter_results_and_push(self, query, empty_twin):
        import repro
        expected = repro.compile(empty_twin).run(self.DOC)
        compiled = repro.compile(query)
        assert compiled.engine.name == "empty"
        assert compiled.run(self.DOC) == expected
        assert list(compiled.iter_results(self.DOC)) == expected
        session = compiled.push()
        assert session.feed(self.DOC) + session.finish() == expected

    def test_count_over_no_parent_is_zero(self):
        import repro
        assert repro.compile("/pub/parent::x/count()").run(self.DOC) == ["0"]
