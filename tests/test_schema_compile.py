"""Schema-aware HPDT compilation (ISSUE 10).

Four contracts under test:

* **content-model reasoning** — ``dead_witness_tags`` answers exactly
  the tags after which a witness can never arrive, and answers the
  empty set (proves nothing) for mixed/ANY content and over-budget
  models;
* **cache identity** — the compile cache keys on schema identity, so
  the same query text compiled with and without (or with a different)
  DTD can never collide;
* **observable equivalence** — schema-on and schema-off runs return
  identical results on schema-valid documents across every engine
  tier (XSQ-F, XSQ-NC, the generated fast kernel) and push mode, while
  the schema-on run measurably buffers less;
* **schema-off neutrality** — with ``schema=None`` nothing changes
  structurally: no gate fields, no gate code in generated kernels, and
  ``repro.xsq.schema_compile`` is never even imported.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.obs import Observability
from repro.streaming.dtd import parse_dtd
from repro.streaming.source import coerce_source
from repro.xsq.codegen import kernel_source
from repro.xsq.compile_cache import HpdtCache, compile_hpdt
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import XSQEngineFast
from repro.xsq.nc import XSQEngineNC
from repro.xsq.schema_compile import (
    CompiledSchema,
    analyze_fastpath,
    analyze_runtime,
    coerce_schema,
    dead_witness_tags,
)

from conftest import oracle

ORDERED_DTD_TEXT = """
<!ELEMENT root (pub+)>
<!ELEMENT pub (year?, publisher, book*)>
<!ELEMENT book (title, price, author+, pub?)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ATTLIST book id CDATA #REQUIRED>
"""

ORDERED_DTD = parse_dtd(ORDERED_DTD_TEXT, root="root")

# year present in pubs 1 and 3 only; one recursive book>pub nesting.
VALID_XML = (
    "<root>"
    "<pub><year>1999</year><publisher>A</publisher>"
    "<book id='a'><title>t1</title><price>5</price><author>x</author></book>"
    "<book id='b'><title>t2</title><price>6</price><author>y</author></book>"
    "</pub>"
    "<pub><publisher>B</publisher>"
    "<book id='c'><title>t3</title><price>7</price><author>z</author></book>"
    "<book id='f'><title>t6</title><price>3</price><author>u</author></book>"
    "</pub>"
    "<pub><year>2001</year><publisher>C</publisher>"
    "<book id='d'><title>t4</title><price>8</price><author>w</author>"
    "<pub><publisher>inner</publisher>"
    "<book id='e'><title>t5</title><price>9</price><author>v</author></book>"
    "</pub></book>"
    "</pub>"
    "</root>")

GATED_QUERY = "/root/pub[year]/book/title/text()"


def model(content, extra=""):
    dtd = parse_dtd("<!ELEMENT r %s>"
                    "<!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
                    "<!ELEMENT c EMPTY>%s" % (content, extra), root="r")
    return dtd.elements["r"].content


class TestDeadWitnessTags:
    def test_ordered_optional_head(self):
        # Once anything has been read in (a?, b, c*), a is over.
        assert dead_witness_tags(model("(a?, b, c*)"), "a") == \
            {"a", "b", "c"}

    def test_ordered_middle(self):
        # a precedes b, so a is not dead for b; b and c are.
        assert dead_witness_tags(model("(a?, b, c*)"), "b") == {"b", "c"}

    def test_repeatable_witness_never_self_dead(self):
        # a* can always recur until b arrives.
        assert dead_witness_tags(model("(a*, b)"), "a") == {"b"}

    def test_optional_tail(self):
        assert dead_witness_tags(model("(a, b?)"), "b") == {"b"}

    def test_choice_keeps_witness_alive(self):
        # (a | b)* — every tag can always still arrive.
        assert dead_witness_tags(model("((a | b)*)"), "a") == frozenset()

    def test_mixed_content_proves_nothing(self):
        assert dead_witness_tags(model("(#PCDATA | a | b)*"), "a") == \
            frozenset()

    def test_any_content_proves_nothing(self):
        assert dead_witness_tags(model("ANY"), "a") == frozenset()

    def test_witness_outside_alphabet_proves_nothing(self):
        assert dead_witness_tags(model("(a, b)"), "c") == frozenset()

    def test_state_limit_aborts_conservatively(self):
        assert dead_witness_tags(model("(a?, b, c*)"), "a",
                                 state_limit=1) == frozenset()


class TestFingerprint:
    def test_stable_across_parses(self):
        one = CompiledSchema(parse_dtd(ORDERED_DTD_TEXT, root="root"))
        two = CompiledSchema(parse_dtd(ORDERED_DTD_TEXT, root="root"))
        assert one.fingerprint == two.fingerprint

    def test_declaration_order_irrelevant(self):
        a = CompiledSchema(parse_dtd(
            "<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
            root="r"))
        b = CompiledSchema(parse_dtd(
            "<!ELEMENT b EMPTY><!ELEMENT a EMPTY><!ELEMENT r (a, b)>",
            root="r"))
        assert a.fingerprint == b.fingerprint

    def test_content_model_change_changes_identity(self):
        a = CompiledSchema(parse_dtd(
            "<!ELEMENT r (a?, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
            root="r"))
        b = CompiledSchema(parse_dtd(
            "<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>",
            root="r"))
        assert a.fingerprint != b.fingerprint

    def test_attribute_mode_change_changes_identity(self):
        a = CompiledSchema(parse_dtd(
            "<!ELEMENT r EMPTY><!ATTLIST r id CDATA #REQUIRED>", root="r"))
        b = CompiledSchema(parse_dtd(
            "<!ELEMENT r EMPTY><!ATTLIST r id CDATA #IMPLIED>", root="r"))
        assert a.fingerprint != b.fingerprint

    def test_coerce_accepts_text_path_dtd_and_compiled(self, tmp_path):
        from_text = coerce_schema(ORDERED_DTD_TEXT)
        from_dtd = coerce_schema(parse_dtd(ORDERED_DTD_TEXT))
        path = tmp_path / "t.dtd"
        path.write_text(ORDERED_DTD_TEXT)
        from_path = coerce_schema(str(path))
        assert from_text.fingerprint == from_dtd.fingerprint \
            == from_path.fingerprint
        assert coerce_schema(from_dtd) is from_dtd
        assert coerce_schema(None) is None

    def test_root_declaration_is_part_of_identity(self):
        rooted = CompiledSchema(ORDERED_DTD)
        unrooted = CompiledSchema(parse_dtd(ORDERED_DTD_TEXT))
        assert rooted.fingerprint != unrooted.fingerprint

    def test_coerce_rejects_junk(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            coerce_schema("no-such-file-and-not-dtd-text")
        with pytest.raises(ReproError):
            coerce_schema(42)


class TestCacheSchemaIdentity:
    """Regression: the same query text compiled with and without (or
    with a different) DTD must occupy distinct cache entries."""

    def test_plain_and_schema_entries_never_collide(self):
        cache = HpdtCache()
        schema = CompiledSchema(ORDERED_DTD)
        plain = compile_hpdt(GATED_QUERY, cache=cache)
        keyed = compile_hpdt(GATED_QUERY, cache=cache,
                             schema_key=schema.fingerprint)
        assert plain is not keyed
        assert len(cache) == 2
        # Repeat compiles hit their own entries.
        assert compile_hpdt(GATED_QUERY, cache=cache) is plain
        assert compile_hpdt(GATED_QUERY, cache=cache,
                            schema_key=schema.fingerprint) is keyed

    def test_different_schemas_get_different_entries(self):
        cache = HpdtCache()
        other = CompiledSchema(parse_dtd(
            ORDERED_DTD_TEXT.replace("(year?, publisher, book*)",
                                     "(publisher, year?, book*)"),
            root="root"))
        schema = CompiledSchema(ORDERED_DTD)
        assert schema.fingerprint != other.fingerprint
        a = compile_hpdt(GATED_QUERY, cache=cache,
                         schema_key=schema.fingerprint)
        b = compile_hpdt(GATED_QUERY, cache=cache,
                         schema_key=other.fingerprint)
        assert a is not b

    def test_schema_plans_keyed_by_fingerprint(self):
        # Even on a SHARED hpdt, schema plans are memoized per
        # fingerprint and the plain plan stays separate.
        from repro.xsq.fastpath import compile_fastplan
        schema = CompiledSchema(ORDERED_DTD)
        hpdt = compile_hpdt(GATED_QUERY, cache=False)
        info = analyze_fastpath(schema, hpdt.query)
        plain = compile_fastplan(hpdt)
        keyed = compile_fastplan(hpdt, schema_info=info)
        assert plain is not keyed
        assert compile_fastplan(hpdt, schema_info=info) is keyed
        assert compile_fastplan(hpdt) is plain
        assert plain.eager_gate is None and keyed.eager_gate is not None


class TestFastpathAnalysis:
    def test_eager_gate_on_ordered_optional_witness(self):
        schema = CompiledSchema(ORDERED_DTD)
        hpdt = compile_hpdt(GATED_QUERY, cache=False)
        info = analyze_fastpath(schema, hpdt.query)
        assert info is not None
        # [year] is predicate 0 of step 1 (pub); by the time any book
        # begins, year has either arrived or never will.
        assert info.eager_gate[2] == frozenset({0})
        assert info.no_buffer

    def test_no_gate_when_witness_can_trail(self):
        # [pub] on book: pub? is the LAST particle, so a title sibling
        # decides nothing.
        schema = CompiledSchema(ORDERED_DTD)
        hpdt = compile_hpdt("/root/pub/book[pub]/title/text()", cache=False)
        info = analyze_fastpath(schema, hpdt.query)
        assert info is None or not info.no_buffer

    def test_runtime_map_mirrors_gate(self):
        schema = CompiledSchema(ORDERED_DTD)
        hpdt = compile_hpdt(GATED_QUERY, cache=False)
        dead_map = analyze_runtime(schema, hpdt.query)
        assert dead_map is not None and (1, "pub") in dead_map
        ((pred_index, dead),) = dead_map[(1, "pub")]
        assert pred_index == 0
        assert dead == {"year", "publisher", "book"}

    def test_analysis_returns_none_when_nothing_proven(self):
        schema = CompiledSchema(parse_dtd(
            "<!ELEMENT r ANY><!ELEMENT g ANY><!ELEMENT n (#PCDATA)>"
            "<!ELEMENT k (#PCDATA)>", root="r"))
        hpdt = compile_hpdt("/r/g[k]/n/text()", cache=False)
        assert analyze_fastpath(schema, hpdt.query) is None
        assert analyze_runtime(schema, hpdt.query) is None


class TestFourTierEquivalence:
    QUERIES = [
        GATED_QUERY,
        "/root/pub/book[author]/title/text()",
        "/root/pub[publisher]/book/price/text()",
        "/root/pub/book[@id]/title/text()",
        "/root/pub[year='1999']/book/title/text()",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_all_tiers_match_schema_off_and_oracle(self, query):
        expected = oracle(query, VALID_XML)
        for build in (
                lambda q, **kw: XSQEngine(q, cache=False, **kw),
                lambda q, **kw: XSQEngineNC(q, cache=False, **kw),
                lambda q, **kw: XSQEngineFast(q, cache=False, **kw)):
            off = build(query).run(VALID_XML)
            on = build(query, schema=ORDERED_DTD).run(VALID_XML)
            assert off == on == expected, query

    def test_facade_auto_selection_with_schema(self):
        q = repro.compile(GATED_QUERY, schema=ORDERED_DTD_TEXT)
        assert q.run(VALID_XML) == oracle(GATED_QUERY, VALID_XML)
        assert "buffering: none (schema)" in q.explain()

    def test_push_mode_byte_identical(self):
        engine = XSQEngine(GATED_QUERY, cache=False, schema=ORDERED_DTD)
        expected = engine.run(VALID_XML)
        events = list(coerce_source(VALID_XML).events())
        for split in range(0, len(events), 5):
            handle = engine.push()
            got = list(handle.feed_events(events[:split]))
            got += handle.feed_events(events[split:])
            got += handle.finish()
            assert got == expected, split


class TestBufferingReduction:
    def test_interpreted_engines_buffer_less(self):
        for cls in (XSQEngine, XSQEngineNC):
            off = cls(GATED_QUERY, cache=False)
            on = cls(GATED_QUERY, cache=False, schema=ORDERED_DTD)
            assert off.run(VALID_XML) == on.run(VALID_XML)
            # The year-less pub parks both its books schema-off; the
            # dead-tag watch kills them at <publisher>.
            assert on.last_stats.peak_buffered_items \
                < off.last_stats.peak_buffered_items, cls.__name__

    def test_accountant_peaks_drop_and_auditor_stays_clean(self):
        def accounted(schema):
            obs = Observability(spans=False, events=False,
                                accounting=True, audit=True)
            engine = XSQEngine(GATED_QUERY, obs=obs, cache=False,
                               schema=schema)
            engine.run(VALID_XML)
            assert obs.auditor.ok, obs.auditor.report()
            (account,) = obs.accounting.snapshot()["accounts"]
            return account

        # Peak buffered items must drop with the schema attached, with
        # zero audit violations either way.
        off = accounted(None)
        on = accounted(ORDERED_DTD)
        assert on["items_high_water"] < off["items_high_water"]

    def test_explain_reports_schema(self):
        on = XSQEngine(GATED_QUERY, cache=False, schema=ORDERED_DTD)
        text = on.explain()
        assert "schema: fingerprint" in text
        assert "eager falsification" in text
        fast = XSQEngineFast(GATED_QUERY, cache=False, schema=ORDERED_DTD)
        fast_text = fast.explain()
        assert "buffering: none (schema)" in fast_text
        assert "schema:" in fast_text


class TestSchemaOffNeutrality:
    """bench_obs_overhead-style structural proofs that ``schema=None``
    stays on the existing hot path."""

    def test_plan_carries_no_schema_fields(self):
        engine = XSQEngineFast(GATED_QUERY, cache=False)
        assert engine.plan.eager_gate is None
        assert engine.plan.schema_note is None
        assert not engine.plan.schema_no_buffer

    def test_schema_off_kernel_has_no_gate_code(self):
        engine = XSQEngineFast(GATED_QUERY, cache=False)
        assert "isdisjoint" not in kernel_source(engine.plan)

    def test_schema_on_kernel_gates(self):
        engine = XSQEngineFast(GATED_QUERY, cache=False, schema=ORDERED_DTD)
        assert "isdisjoint" in kernel_source(engine.plan)
        assert engine.run(VALID_XML) == oracle(GATED_QUERY, VALID_XML)

    def test_schema_module_never_imported_without_schema(self):
        probe = (
            "import sys\n"
            "import repro\n"
            "q = repro.compile(%r)\n"
            "assert q.run(%r)\n"
            "from repro.xsq.engine import XSQEngine\n"
            "assert XSQEngine(%r).run(%r)\n"
            "assert 'repro.xsq.schema_compile' not in sys.modules, "
            "'schema-off path imported the schema compiler'\n"
            % (GATED_QUERY, VALID_XML, GATED_QUERY, VALID_XML))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
