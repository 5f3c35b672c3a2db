"""Generated fast-path kernels and element output corners.

Three contracts under test:

* the generated kernel is invisible: it, the interpreted NC and F
  engines and the DOM oracle all return the same items (and the
  kernel the same stats as NC) — including on element output;
* every plan gets a kernel: paths thousands of steps deep and
  transition rows thousands of entries wide compile too, because
  state and tag dispatch are flat blocks, not nested ``elif`` chains;
* element serialization is canonical: CDATA sections, entity
  references, comments/PIs inside the output subtree and mixed content
  all serialize exactly as the interpreted ``EventSerializer`` and the
  DOM baseline's ``DomElement.serialize`` do, because all three build
  output from parsed events, never by splicing raw input bytes.
"""

import pytest

import repro
from repro.baselines.dom import build_dom, evaluate
from repro.xsq.codegen import compile_kernel, kernel_source
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import XSQEngineFast, compile_fastplan
from repro.xsq.nc import XSQEngineNC

# Hard serialization corners: every document hides something that a
# raw-byte-splicing serializer would reproduce verbatim and therefore
# get wrong relative to the parsed-content canonical form.
DOC_CDATA = ("<pub><book><name><![CDATA[raw <markup> & junk]]></name>"
             "<author>A</author></book></pub>")
DOC_ENTITIES = ("<pub><book><name>A&amp;B &#60;x&#62; &quot;q&quot;</name>"
                "<author>B</author></book></pub>")
DOC_COMMENT_PI = ("<pub><book><name>He<!-- dropped -->llo</name>"
                  "<?pi also dropped?><author>C</author></book></pub>")
DOC_MIXED = ("<pub><book>lead<name>N</name>mid<author>D</author>tail"
             "</book></pub>")
DOC_NESTED = ("<pub><book id=\"1\"><name>outer<sub a=\"&lt;\">inner"
              "</sub></name><author>E</author></book></pub>")

CORNER_DOCS = [DOC_CDATA, DOC_ENTITIES, DOC_COMMENT_PI, DOC_MIXED,
               DOC_NESTED]

ELEMENT_QUERIES = ["/pub/book/name", "/pub/book", "/pub/book[author]",
                   "/pub/*/name"]


def all_engine_results(query, doc):
    """(kernel, nc, f, dom) result lists for ``query``; the kernel's
    RunStats must equal NC's."""
    fast = repro.compile(query, engine="fast")
    assert fast.engine.kernel is not None
    nc = XSQEngineNC(query)
    results = (fast.run(doc), nc.run(doc), XSQEngine(query).run(doc),
               evaluate(build_dom(doc), query))
    assert fast.stats.as_dict() == nc.stats.as_dict(), query
    return results


class TestElementOutputCorners:
    @pytest.mark.parametrize("doc", CORNER_DOCS)
    @pytest.mark.parametrize("query", ELEMENT_QUERIES)
    def test_four_way_agreement(self, query, doc):
        fast, nc, f, dom = all_engine_results(query, doc)
        assert fast == nc == f == dom

    def test_cdata_re_escaped_not_spliced(self):
        got = repro.compile("/pub/book/name").run(DOC_CDATA)
        assert got == ["<name>raw &lt;markup&gt; &amp; junk</name>"]

    def test_entity_references_canonicalized(self):
        # &#60; and &quot; parse to '<' and '"'; serialization re-escapes
        # only what must be escaped, so the quote comes back literal.
        got = repro.compile("/pub/book/name").run(DOC_ENTITIES)
        assert got == ['<name>A&amp;B &lt;x&gt; "q"</name>']

    def test_comments_and_pis_dropped_text_coalesced(self):
        got = repro.compile("/pub/book/name").run(DOC_COMMENT_PI)
        assert got == ["<name>Hello</name>"]

    def test_mixed_content_preserves_order(self):
        got = repro.compile("/pub/book").run(DOC_MIXED)
        assert got == ["<book>lead<name>N</name>mid<author>D</author>"
                       "tail</book>"]

    def test_nested_subtree_with_attributes(self):
        got = repro.compile("/pub/book/name").run(DOC_NESTED)
        assert got == ['<name>outer<sub a="&lt;">inner</sub></name>']

    def test_roundtrip_matches_serializer_baseline(self):
        # The output of an element query over its own serialization is a
        # fixpoint: serialize(parse(serialize(x))) == serialize(x).
        for doc in CORNER_DOCS:
            first = repro.compile("/pub/book").run(doc)
            assert len(first) == 1
            again = repro.compile("/book").run(first[0])
            assert again == first


class TestKernelGeneration:
    def test_kernel_bound_as_run_batch(self):
        engine = XSQEngineFast("/pub/book/name/text()")
        assert engine.kernel is not None
        runtime = engine.push()._runtime
        assert "run_batch" in runtime.__dict__

    def test_kernel_source_is_inspectable(self):
        engine = XSQEngineFast("/pub/book/name/text()")
        source = engine.kernel.__xsq_source__
        assert source == kernel_source(engine.plan)
        assert "def __xsq_kernel__" in source
        compile(source, "<check>", "exec")  # stays valid python

    def test_kernel_memo_rides_plan(self):
        from repro.xsq.compile_cache import compile_hpdt
        plan = compile_fastplan(compile_hpdt("/pub/book/name/text()"))
        first = compile_kernel(plan)
        assert compile_kernel(plan) is first

    def test_explain_names_the_kernel(self):
        explain = repro.compile("/pub/book/name/text()").explain()
        assert "kernel: generated kernel" in explain


def assert_huge_plan_agrees(query, doc, expected):
    """A huge plan gets a generated kernel whose results equal XSQ-NC
    and the DOM oracle (and its RunStats equal NC's)."""
    engine = XSQEngineFast(query, cache=False)
    assert engine.kernel is not None
    assert engine.kernel_note.startswith("generated kernel")
    nc = XSQEngineNC(query, cache=False)
    assert engine.run(doc) == expected
    assert nc.run(doc) == expected
    assert evaluate(build_dom(doc), query) == expected
    assert engine.stats.as_dict() == nc.stats.as_dict()


class TestHugePlans:
    """Plans far beyond any workload shape still compile to kernels:
    each of these overflows Python's compiler if state or tag dispatch
    is emitted as one nested ``elif`` chain."""

    def test_deep_path_gets_kernel(self):
        # 3,000 child steps with [@k] on every other one.  One branch
        # matches down to "x"; a second branch drops @k at step 1,500.
        depth, split = 3000, 1500
        query = "/" + "/".join("s%d[@k]" % i if i % 2 == 0 else "s%d" % i
                               for i in range(depth)) + "/text()"

        def opening(i, keep=True):
            if i % 2 == 0 and keep:
                return "<s%d k='1'>" % i
            return "<s%d>" % i

        def closing(low, high=depth):
            return "".join("</s%d>" % i for i in reversed(range(low, high)))

        doc = "".join(opening(i) for i in range(depth)) + "x" + closing(split)
        doc += opening(split, keep=False)
        doc += "".join(opening(i) for i in range(split + 1, depth))
        doc += "y" + closing(split) + closing(0, split)
        assert_huge_plan_agrees(query, doc, ["x"])

    def test_wide_row_gets_kernel(self):
        # One state watching 5,000 distinct child tags: [b0]...[b4999].
        width = 5000
        query = ("/r/a" + "".join("[b%d]" % i for i in range(width))
                 + "/c/text()")
        doc = ("<r><a>" + "".join("<b%d/>" % i for i in range(width))
               + "<c>yes</c></a><a><b0/><b1/><c>no</c></a></r>")
        assert_huge_plan_agrees(query, doc, ["yes"])


class TestKernelEquivalenceWithStats:
    QUERIES = ["/pub/book/name/text()", "/pub/book/@id",
               "/pub/book[@id]/name/text()", "/pub/book/count()",
               "/pub/book[author]/name", "/pub/book"]
    DOC = ("<pub><book id=\"1\"><name>First</name><author>A</author>"
           "</book><book><name>Second</name></book>"
           "<book id=\"3\"><name>Third</name><author>B</author>"
           "</book></pub>")

    @pytest.mark.parametrize("query", QUERIES)
    def test_kernel_matches_interpreter_and_stats(self, query):
        with_kernel = XSQEngineFast(query)
        interpreted = XSQEngineNC(query)
        assert with_kernel.run(self.DOC) == interpreted.run(self.DOC)
        for field in ("emitted", "enqueued", "cleared",
                      "peak_buffered_items", "peak_instances"):
            assert (getattr(with_kernel.stats, field)
                    == getattr(interpreted.stats, field)), field


class TestPushModeKernels:
    def feed_all_offsets(self, query_text, doc):
        expected = repro.compile(query_text).run(doc)
        query = repro.compile(query_text)
        for offset in range(len(doc) + 1):
            got = (query.feed(doc[:offset]) + query.feed(doc[offset:])
                   + query.finish())
            assert got == expected, "split at %d diverged" % offset
        return expected

    @pytest.mark.parametrize("doc", CORNER_DOCS)
    def test_element_output_every_offset(self, doc):
        results = self.feed_all_offsets("/pub/book/name", doc)
        assert len(results) == 1

    def test_text_output_every_offset(self):
        got = self.feed_all_offsets("/pub/book/name/text()", DOC_ENTITIES)
        assert got == ['A&B <x> "q"']
