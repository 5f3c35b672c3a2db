"""Schema-valid document generation, and the differential properties it
enables: everything generated validates, and schema-aware evaluation is
indistinguishable from plain evaluation on schema-valid data."""

import pytest

import repro
from repro.datagen.from_dtd import (
    DtdDocumentGenerator,
    generate_valid_document,
    shortest_completion,
)
from repro.datagen.queries import generate_filter_workload
from repro.streaming.dtd import parse_dtd, validate
from repro.streaming.sax_source import parse_events
from repro.xsq.engine import XSQEngine

from conftest import oracle

BOOK_DTD = parse_dtd("""
<!ELEMENT pub (year?, book+)>
<!ELEMENT book (title, author*)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ATTLIST book id CDATA #REQUIRED
               kind (hardcover|paperback) "paperback">
""", root="pub")

RECURSIVE_DTD = parse_dtd("""
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
<!ATTLIST part serial CDATA #REQUIRED>
""", root="part")

MIXED_DTD = parse_dtd("""
<!ELEMENT doc (p | note)+>
<!ELEMENT p (#PCDATA | em)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT note (p)>
""", root="doc")

ALL_DTDS = [BOOK_DTD, RECURSIVE_DTD, MIXED_DTD]


class TestShortestCompletion:
    def model(self, text, extra=""):
        dtd = parse_dtd("<!ELEMENT r %s><!ELEMENT a EMPTY>"
                        "<!ELEMENT b EMPTY><!ELEMENT c EMPTY>%s"
                        % (text, extra))
        return dtd.elements["r"].content

    def test_already_accepting(self):
        model = self.model("(a*)")
        assert shortest_completion(model, model.initial_state()) == []

    def test_mandatory_sequence(self):
        model = self.model("(a, b, c)")
        assert shortest_completion(model, model.initial_state()) == \
            ["a", "b", "c"]

    def test_choice_takes_shorter_branch(self):
        model = self.model("((a, b, c) | b)")
        assert shortest_completion(model, model.initial_state()) == ["b"]

    def test_mid_state(self):
        model = self.model("(a, b+)")
        state = model.advance(model.initial_state(), "a")
        assert shortest_completion(model, state) == ["b"]

    def test_failing_state_has_no_completion(self):
        from repro.streaming.dtd import NOTHING
        model = self.model("(a)")
        assert shortest_completion(model, NOTHING) is None


class TestGeneratedDocumentsValidate:
    @pytest.mark.parametrize("dtd", ALL_DTDS,
                             ids=["book", "recursive", "mixed"])
    @pytest.mark.parametrize("seed", range(8))
    def test_always_valid(self, dtd, seed):
        xml = generate_valid_document(dtd, seed=seed)
        assert validate(dtd, parse_events(xml)) > 0

    def test_deterministic_per_seed(self):
        assert generate_valid_document(BOOK_DTD, seed=3) == \
            generate_valid_document(BOOK_DTD, seed=3)

    def test_seeds_vary_content(self):
        docs = {generate_valid_document(BOOK_DTD, seed=s)
                for s in range(6)}
        assert len(docs) > 1

    def test_recursive_dtd_respects_depth_budget(self):
        from repro.datagen import dataset_statistics
        xml = generate_valid_document(RECURSIVE_DTD, seed=1, max_depth=5)
        stats = dataset_statistics(xml)
        # The budget bounds expansion of *optional* content; mandatory
        # completions may exceed it slightly, not explode.
        assert stats.max_depth <= 12

    def test_required_attributes_present(self):
        xml = generate_valid_document(BOOK_DTD, seed=2)
        from repro.baselines.dom import build_dom
        document = build_dom(xml)
        for element in document.iter_elements():
            if element.tag == "book":
                assert "id" in element.attrs

    def test_file_output(self, tmp_path):
        path = tmp_path / "doc.xml"
        assert generate_valid_document(BOOK_DTD, seed=4,
                                       path=str(path)) is None
        validate(BOOK_DTD, parse_events(str(path)))

    def test_root_required(self):
        dtd = parse_dtd("<!ELEMENT a EMPTY>")
        with pytest.raises(ValueError):
            DtdDocumentGenerator(dtd)


class TestSchemaAwareDifferential:
    """On schema-valid documents, schema-aware evaluation must be
    indistinguishable from the plain engine — for generated documents
    AND generated query workloads."""

    QUERIES = ["//author/text()", "//book[title]/author/text()",
               "/pub/book/@id", "//title", "/pub[year]/book/count()",
               "//book[@kind='hardcover']/title/text()"]

    @pytest.mark.parametrize("seed", range(5))
    def test_fixed_queries(self, seed):
        xml = generate_valid_document(BOOK_DTD, seed=seed)
        for query in self.QUERIES:
            assert repro.compile(query, schema=BOOK_DTD).run(xml) == \
                XSQEngine(query).run(xml), (seed, query)

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_workload(self, seed):
        xml = generate_valid_document(BOOK_DTD, seed=seed, max_depth=6)
        queries = generate_filter_workload(xml, 6, seed=seed + 50,
                                           closure_probability=0.4)
        for query in queries:
            assert repro.compile(query, schema=BOOK_DTD).run(xml) == \
                XSQEngine(query).run(xml) == oracle(query, xml), \
                (seed, query)

    @pytest.mark.parametrize("seed", range(3))
    def test_recursive_schema_differential(self, seed):
        xml = generate_valid_document(RECURSIVE_DTD, seed=seed)
        for query in ("//part/name/text()", "//part[@serial]/name",
                      "//part//name/count()"):
            assert repro.compile(query, schema=RECURSIVE_DTD).run(xml) == \
                XSQEngine(query).run(xml), (seed, query)
