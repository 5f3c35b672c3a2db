"""Schema-aware optimization (the paper's Section 5 future work)."""

import pytest

import repro
from repro.api import UnionEngine
from repro.errors import ClosureNotSupportedError
from repro.streaming.dtd import parse_dtd
from repro.xsq.engine import XSQEngine
from repro.xsq.nc import XSQEngineNC
from repro.xsq.schema_opt import optimize

from conftest import oracle

BOOK_DTD = parse_dtd("""
<!ELEMENT pub (year?, book+)>
<!ELEMENT book (title, author*)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ATTLIST book id CDATA #REQUIRED>
""", root="pub")

RECURSIVE_DTD = parse_dtd("""
<!ELEMENT pub (year?, book*)>
<!ELEMENT book (title, pub?)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT title (#PCDATA)>
""", root="pub")

DOC = ('<pub><year>2002</year>'
       '<book id="1"><title>T1</title><author>A1</author></book>'
       '<book id="2"><title>T2</title></book></pub>')


class TestEmptiness:
    @pytest.mark.parametrize("query", [
        "/pub/magazine/text()",          # tag not in schema
        "/book/title/text()",            # wrong document element
        "//title/author/text()",         # title has no children
        "/pub/book[isbn]/title/text()",  # predicate child impossible
        "/pub/book[year=2002]/title/text()",  # year not a child of book
        "//year[author]/text()",         # predicate child impossible
        "/pub[text()]/book",             # pub has element content only
    ])
    def test_statically_empty(self, query):
        plan = optimize(BOOK_DTD, query)
        assert plan.empty, plan.describe()
        assert repro.compile(query, schema=BOOK_DTD).run(DOC) == []

    def test_empty_aggregates_render_properly(self):
        for query in ("/pub/magazine/count()", "/pub/magazine/price/sum()"):
            compiled = repro.compile(query, schema=BOOK_DTD)
            assert compiled.engine_name == "empty"
            assert compiled.run(DOC) == ["0"]
            assert list(compiled.iter_results(DOC)) == ["0"]
            session = compiled.push()
            assert session.feed(DOC) == []
            assert session.finish() == ["0"]

    def test_satisfiable_query_not_marked_empty(self):
        assert not optimize(BOOK_DTD, "/pub/book/title/text()").empty


class TestPredicateElimination:
    def test_required_child_predicate_dropped(self):
        plan = optimize(BOOK_DTD, "/pub/book[title]/author/text()")
        assert not plan.queries[0].steps[1].predicates
        assert any("guaranteed" in note for note in plan.notes)

    def test_optional_child_predicate_kept(self):
        # author* is optional: [author] does real filtering.
        plan = optimize(BOOK_DTD, "/pub/book[author]/title/text()")
        assert plan.queries[0].steps[1].predicates

    def test_optional_year_predicate_kept(self):
        plan = optimize(BOOK_DTD, "/pub[year]/book/title/text()")
        assert plan.queries[0].steps[0].predicates

    def test_value_predicates_never_dropped(self):
        # The schema guarantees a title exists, not its value.
        plan = optimize(BOOK_DTD, "/pub/book[title='x']/author/text()")
        assert plan.queries[0].steps[1].predicates

    def test_elimination_preserves_results(self):
        query = "/pub/book[title]/author/text()"
        engine = repro.compile(query, schema=BOOK_DTD)
        assert engine.run(DOC) == oracle(query, DOC) == ["A1"]

    def test_wildcard_predicate_never_dropped_past_its_own_filter(self):
        # [delta] is guaranteed for beta and gamma — but * also matches
        # delta itself, which the predicate excludes.  Dropping it
        # would widen //* to delta and surface delta's text.
        dtd = parse_dtd("""
            <!ELEMENT alpha (beta, gamma)>
            <!ELEMENT beta (delta)>
            <!ELEMENT gamma (delta)>
            <!ELEMENT delta (#PCDATA)>
        """, root="alpha")
        xml = ("<alpha><beta><delta>1</delta></beta>"
               "<gamma><delta>2</delta></gamma></alpha>")
        query = "/alpha[beta]//*[delta]/text()"
        assert oracle(query, xml) == []
        plan = optimize(dtd, query)
        assert not any("[delta]" in note and "dropped" in note
                       for note in plan.notes), plan.describe()
        assert repro.compile(query, schema=dtd).run(xml) == []


class TestRequiredAttributeElimination:
    """``[@attr]`` is guaranteed exactly when the DTD declares the
    attribute ``#REQUIRED`` — a valid element cannot omit it."""

    def test_required_attr_predicate_dropped(self):
        plan = optimize(BOOK_DTD, "/pub/book[@id]/title/text()")
        assert not plan.queries[0].steps[1].predicates
        assert any("guaranteed" in note for note in plan.notes), plan.notes

    def test_implied_attr_predicate_kept(self):
        dtd = parse_dtd("""
            <!ELEMENT pub (book+)>
            <!ELEMENT book (title)>
            <!ELEMENT title (#PCDATA)>
            <!ATTLIST book id CDATA #IMPLIED>
        """, root="pub")
        plan = optimize(dtd, "/pub/book[@id]/title/text()")
        assert plan.queries[0].steps[1].predicates

    def test_defaulted_attr_predicate_kept(self):
        # A defaulted attribute may be absent from the *stream* (the
        # engines do not inject DTD defaults), so [@kind] still filters.
        dtd = parse_dtd("""
            <!ELEMENT pub (book+)>
            <!ELEMENT book (title)>
            <!ELEMENT title (#PCDATA)>
            <!ATTLIST book kind (a|b) "a">
        """, root="pub")
        plan = optimize(dtd, "/pub/book[@kind]/title/text()")
        assert plan.queries[0].steps[1].predicates

    def test_undeclared_attr_predicate_kept(self):
        plan = optimize(BOOK_DTD, "/pub/book[@isbn]/title/text()")
        assert plan.queries[0].steps[1].predicates

    def test_attr_value_predicate_never_dropped(self):
        # #REQUIRED guarantees presence, not any particular value.
        plan = optimize(BOOK_DTD, "/pub/book[@id='1']/title/text()")
        assert plan.queries[0].steps[1].predicates

    def test_text_predicate_never_dropped(self):
        # A DTD can only say text is *allowed*, never that it is
        # non-empty — [text()] always does real filtering.
        plan = optimize(BOOK_DTD, "/pub/book/title[text()]")
        assert plan.queries[0].steps[2].predicates

    def test_elimination_preserves_results(self):
        query = "/pub/book[@id]/title/text()"
        engine = repro.compile(query, schema=BOOK_DTD)
        assert engine.run(DOC) == oracle(query, DOC) == ["T1", "T2"]


class TestClosureElimination:
    def test_single_path_runs_deterministic(self):
        plan = optimize(BOOK_DTD, "//author/text()")
        assert not plan.is_union
        assert not plan.queries[0].has_closure
        # XSQ-NC rejects closures: it compiles only the expanded path.
        engine = repro.compile("//author/text()", engine="nc",
                               schema=BOOK_DTD)
        assert isinstance(engine.engine, XSQEngineNC)
        assert engine.run(DOC) == ["A1"]
        assert repro.compile("//author/text()",
                             schema=BOOK_DTD).run(DOC) == ["A1"]

    def test_multi_closure_query(self):
        assert optimize(BOOK_DTD, "//book//author/text()").closure_free
        engine = repro.compile("//book//author/text()", schema=BOOK_DTD)
        assert engine.run(DOC) == ["A1"]

    def test_recursive_dtd_keeps_closures(self):
        query = "//book/title/text()"
        assert optimize(RECURSIVE_DTD, query).queries[0].has_closure
        with pytest.raises(ClosureNotSupportedError):
            repro.compile(query, engine="nc", schema=RECURSIVE_DTD)
        engine = repro.compile(query, engine="f", schema=RECURSIVE_DTD)
        assert isinstance(engine.engine, XSQEngine)
        doc = ("<pub><book><title>outer</title>"
               "<pub><book><title>inner</title></book></pub>"
               "</book></pub>")
        assert engine.run(doc) == ["outer", "inner"]

    def test_union_expansion(self):
        dtd = parse_dtd("""
            <!ELEMENT lib (shelf*, box*)>
            <!ELEMENT shelf (item*)>
            <!ELEMENT box (item*)>
            <!ELEMENT item (#PCDATA)>
        """, root="lib")
        # A predicate closure has no kernel of its own: it runs as the
        # union of its expansion.
        engine = repro.compile("//*[item]/item/text()", schema=dtd)
        assert isinstance(engine.engine, UnionEngine)
        assert engine.engine.schema_plan.is_union
        assert len(engine.engine.schema_plan.queries) == 2
        doc = ("<lib><shelf><item>s1</item></shelf>"
               "<box><item>b1</item></box>"
               "<box><item>b2</item></box></lib>")
        assert engine.run(doc) == ["s1", "b1", "b2"]

    def test_kernel_closure_stays_on_its_kernel(self):
        dtd = parse_dtd("""
            <!ELEMENT lib (shelf*, box*)>
            <!ELEMENT shelf (item*)>
            <!ELEMENT box (item*)>
            <!ELEMENT item (#PCDATA)>
        """, root="lib")
        # The schema expands //item into two paths, but the closure
        # already runs on a kernel: a DTD must not demote it.
        assert optimize(dtd, "//item/text()").is_union
        engine = repro.compile("//item/text()", schema=dtd)
        assert engine.engine_name == "xsq-fast"
        doc = ("<lib><shelf><item>s1</item></shelf>"
               "<box><item>b1</item></box>"
               "<box><item>b2</item></box></lib>")
        assert engine.run(doc) == ["s1", "b1", "b2"]
        assert engine.run(doc) == repro.compile("//item/text()").run(doc)

    def test_expansion_cap_falls_back(self):
        dtd = parse_dtd("""
            <!ELEMENT r (a*, b*, c*, d*)>
            <!ELEMENT a (x*)> <!ELEMENT b (x*)>
            <!ELEMENT c (x*)> <!ELEMENT d (x*)>
            <!ELEMENT x (#PCDATA)>
        """, root="r")
        plan = optimize(dtd, "//x/text()", max_expansions=2)
        # More than 2 paths exist; expansion aborted, closure kept.
        assert plan.queries[0].has_closure

    def test_expansion_equals_oracle_on_dataset(self):
        dtd = parse_dtd("""
            <!ELEMENT dblp (article | inproceedings)*>
            <!ELEMENT article (author*, title, journal?, volume?, year,
                               pages, url)>
            <!ELEMENT inproceedings (author*, title, booktitle, year,
                                     pages, url)>
            <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>
            <!ELEMENT journal (#PCDATA)> <!ELEMENT volume (#PCDATA)>
            <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>
            <!ELEMENT url (#PCDATA)> <!ELEMENT booktitle (#PCDATA)>
        """, root="dblp")
        from repro.datagen import generate_dblp
        xml = generate_dblp(20_000)
        for query in ("//title/text()", "//author/text()",
                      "//article//year/text()"):
            engine = repro.compile(query, schema=dtd)
            assert engine.run(xml) == oracle(query, xml), \
                optimize(dtd, query).describe()


class TestPlanReporting:
    def test_describe_lists_rewrites(self):
        query = "//book[title]/author/text()"
        text = optimize(BOOK_DTD, query).describe()
        assert "plan for" in text
        assert "guaranteed" in text
        assert "run: " in text
        explained = repro.compile(query, schema=BOOK_DTD).explain()
        assert "runtime: xsq-fast" in explained

    def test_plan_repr(self):
        plan = optimize(BOOK_DTD, "/pub/magazine")
        assert "EMPTY" in repr(plan)


class TestEquivalenceWithUnoptimized:
    """Schema optimization is an optimization: results never change
    on schema-valid documents."""

    QUERIES = [
        "/pub/book/title/text()",
        "//author/text()",
        "//book[title]/author/text()",
        "//book[@id]/title/text()",
        "//book//title",
        "/pub[year]/book/title/text()",
        "/pub/book/count()",
        "//title/count()",
        "/pub/magazine/text()",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_results_identical(self, query):
        optimized = repro.compile(query, schema=BOOK_DTD).run(DOC)
        plain = XSQEngine(query).run(DOC)
        assert optimized == plain, query
