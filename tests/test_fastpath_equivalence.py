"""Differential proof that the compiled fast path changes nothing.

The fast path's whole contract is "same results, same order, same
RunStats, only faster".  This suite checks it three ways:

* a deterministic matrix covering every predicate category of
  Section 3.2 (and the outputs: text, attribute, aggregates) against
  both interpreted engines;
* property-based sweeps: random recursive documents and random
  supported queries, fast vs NC vs F, full RunStats equality;
* the real evaluation workloads (datagen SHAKE/NASA/DBLP/PSD at small
  sizes) through the public facade.

It also pins the *selection* contract: ``engine="auto"`` never silently
changes semantics — a fallback is visible in ``.explain()`` and in the
``repro_fastpath_fallback_total`` counter — and the batched parser
boundary produces exactly the tuples the Event parser implies.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.datagen import (
    generate_dblp,
    generate_nasa,
    generate_psd,
    generate_shake,
)
from repro.errors import FastPathUnsupportedError
from repro.obs import Observability
from repro.streaming.events import BEGIN, END, TEXT, batch_events
from repro.streaming.push import PushBatchParser
from repro.streaming.sax_source import parse_events
from repro.streaming.source import coerce_source
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import (
    TagTable,
    XSQEngineFast,
    compile_fastplan,
    unsupported_reason,
)
from repro.xsq.multiquery import MultiQueryEngine
from repro.xsq.nc import XSQEngineNC


def assert_equivalent(query, xml, check_f=True):
    """The generated kernel, NC (and optionally F) agree on results,
    order and stats."""
    fast = XSQEngineFast(query)
    nc = XSQEngineNC(query)
    fast_results = fast.run(xml)
    assert fast_results == nc.run(xml), query
    assert fast.stats.as_dict() == nc.stats.as_dict(), query
    if check_f:
        f = XSQEngine(query)
        assert fast_results == f.run(xml), query
    return fast_results


# --------------------------------------------------------------------------
# Deterministic matrix: every predicate category, every output kind.
# --------------------------------------------------------------------------

MATRIX_XML = (
    '<pub>'
    '<book id="1" lang="en"><year>2002</year><author>A</author>'
    '  <name>One</name><price>9</price></book>'
    '<book id="2"><year>1999</year><name>Two</name><price>12</price></book>'
    '<book lang="fr"><year></year><author>B</author><author>C</author>'
    '  <name>Three</name><price>9</price></book>'
    '<book id="4" lang="en"><year>2010</year><name>Four</name></book>'
    '<year>2001</year>'
    '</pub>'
)

MATRIX_QUERIES = [
    # plain paths and wildcards
    "/pub/book/name/text()",
    "/pub/*/name/text()",
    "/pub/book/*/text()",
    # category 1: attribute predicates at begin
    "/pub/book[@id]/name/text()",
    "/pub/book[@id='2']/name/text()",
    "/pub/book[@id][@lang='en']/name/text()",
    # category 2: own-text predicates
    "/pub/book/year[text()]/text()",
    "/pub/book/year[text()>2000]/text()",
    # category 3: bare child-existence
    "/pub/book[author]/name/text()",
    "/pub/book[*]/name/text()",
    # category 4: child-attribute predicates
    "/pub[book@id]/year/text()",
    "/pub[book@id='4']/year/text()",
    # category 5: child-text predicates
    "/pub/book[year>2000]/name/text()",
    "/pub/book[author='C']/name/text()",
    "/pub/book[price=9][author]/name/text()",
    # outputs: attribute and the aggregate family
    "/pub/book[year>1990]/@id",
    "/pub/book/count()",
    "/pub/book[@lang='en']/price/sum()",
    "/pub/book/price/avg()",
    "/pub/book/price/min()",
    "/pub/book/price/max()",
    # element (catchall) output: plain, predicated, buffered, wildcard
    "/pub/book/name",
    "/pub/book[@id]/name",
    "/pub/book[author]/name",
    "/pub/book[year>2000]/author",
    "/pub/*/name",
    "/pub/book",
]


@pytest.mark.parametrize("query", MATRIX_QUERIES)
def test_predicate_category_matrix(query):
    assert_equivalent(query, MATRIX_XML)


def test_multiple_matches_keep_document_order():
    xml = "<r>" + "".join(
        "<e k='%d'><v>%d</v></e>" % (i % 3, i) for i in range(30)) + "</r>"
    results = assert_equivalent("/r/e[@k='1']/v/text()", xml)
    assert results == [str(i) for i in range(30) if i % 3 == 1]


def test_buffered_predicate_resolution_order():
    # The deciding event (author) arrives after the output candidate
    # (name), so items sit buffered until the predicate resolves.
    xml = ("<pub><book><name>Later</name><author>A</author></book>"
           "<book><name>Never</name></book></pub>")
    results = assert_equivalent("/pub/book[author]/name/text()", xml)
    assert results == ["Later"]


@pytest.mark.parametrize("query,expected", [
    ("/b[a<1]/a/text()", ["0", "5"]),
    ("/b[a<1]/a", ["<a>0</a>", "<a>5</a>"]),
    ("/b[a<1][*<1]/a/text()", ["0", "5"]),
    ("/b[a>7]/a/text()", []),
])
def test_matched_child_decides_parent_child_text_predicate(query, expected):
    # The output element is also the child whose text decides the
    # parent's category-5 predicate: its own text must witness it.
    xml = "<b><a>0</a><a>5</a></b>"
    assert assert_equivalent(query, xml) == expected


def test_iter_results_match_run():
    engine = XSQEngineFast("/pub/book[year>2000]/name/text()")
    assert list(engine.iter_results(MATRIX_XML)) == engine.run(MATRIX_XML)


# --------------------------------------------------------------------------
# Property-based sweep: random documents, random supported queries.
# --------------------------------------------------------------------------

TAGS = ("a", "b", "c")


@st.composite
def elements(draw, depth):
    tag = draw(st.sampled_from(TAGS))
    attrs = draw(st.dictionaries(st.sampled_from(("id", "x")),
                                 st.integers(0, 2).map(str), max_size=2))
    children = []
    if depth > 0:
        children = draw(st.lists(elements(depth=depth - 1), max_size=3))
    texts = draw(st.lists(st.integers(0, 4).map(str), max_size=2))
    return (tag, attrs, children, texts)


def render(node):
    tag, attrs, children, texts = node
    attr_text = "".join(' %s="%s"' % item for item in sorted(attrs.items()))
    inner = []
    for index, child in enumerate(children):
        inner.append(render(child))
        if index < len(texts):
            inner.append(texts[index])
    inner.extend(texts[len(children):])
    return "<%s%s>%s</%s>" % (tag, attr_text, "".join(inner), tag)


documents = elements(depth=3).map(render)


@st.composite
def fast_queries(draw):
    """Queries from the fast-path-supported grammar."""
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        tag = draw(st.sampled_from(TAGS + ("*",)))
        predicates = []
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(
                ("attr", "attr_cmp", "text", "child", "child_attr",
                 "child_text")))
            child = draw(st.sampled_from(TAGS))
            value = draw(st.integers(0, 3))
            if kind == "attr":
                predicates.append("[@id]")
            elif kind == "attr_cmp":
                predicates.append("[@id='%d']" % value)
            elif kind == "text":
                predicates.append("[text()>%d]" % value)
            elif kind == "child":
                predicates.append("[%s]" % child)
            elif kind == "child_attr":
                predicates.append("[%s@id='%d']" % (child, value))
            else:
                predicates.append("[%s<%d]" % (child, value))
        steps.append(tag + "".join(predicates))
    output = draw(st.sampled_from(("text()", "@id", "count()", "")))
    path = "/" + "/".join(steps)
    return path + "/" + output if output else path


@settings(max_examples=120, deadline=None)
@given(xml=documents, query=fast_queries())
def test_property_sweep_fast_vs_interpreted(xml, query):
    assert_equivalent(query, xml)


@settings(max_examples=40, deadline=None)
@given(xml=documents, queries=st.lists(fast_queries(), min_size=2,
                                       max_size=4))
def test_property_sweep_multiquery_fast_pump(xml, queries):
    fast = MultiQueryEngine(queries)
    assert all(plan is not None for plan in fast._fast[1])
    # A per-event instrument lowers every member to XSQ-F.
    interp = MultiQueryEngine(queries, obs=Observability(
        spans=False, metrics=False, events=False, per_event_timing=True))
    assert all(plan is None for plan in interp._fast[1])
    assert fast.run(xml) == interp.run(xml)
    assert ([s.as_dict() for s in fast.last_stats]
            == [s.as_dict() for s in interp.last_stats])


# --------------------------------------------------------------------------
# Real evaluation workloads through the public facade.
# --------------------------------------------------------------------------

WORKLOADS = [
    (generate_shake, "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()"),
    (generate_nasa, "/datasets/dataset/reference/source/other/name/text()"),
    (generate_dblp, "/dblp/inproceedings[author]/title/text()"),
    (generate_psd,
     "/ProteinDatabase/ProteinEntry/reference/refinfo/authors/author/text()"),
]


@pytest.mark.parametrize("generate,query", WORKLOADS)
def test_datagen_workloads(generate, query):
    xml = generate(target_bytes=60_000)
    compiled = repro.compile(query)
    assert compiled.engine_name == "xsq-fast"
    fast_results = compiled.run(xml)
    assert fast_results == XSQEngineNC(query).run(xml)
    assert fast_results  # the workload queries all produce output


# --------------------------------------------------------------------------
# The batched parser boundary.
# --------------------------------------------------------------------------

BOUNDARY_XML = ('<r a="1">t0<e><x y="2">deep</x></e>mid<e/>'
                '<e>tail</e>end</r>')


def expected_tuples(xml, tags):
    out = []
    for event in parse_events(xml):
        if event.kind == "begin":
            out.append((BEGIN, tags.intern(event.tag), event.attrs,
                        event.depth))
        elif event.kind == "end":
            out.append((END, tags.intern(event.tag), None, event.depth))
        else:
            out.append((TEXT, tags.intern(event.tag), event.text,
                        event.depth))
    return out


def parsed_tuples(xml, tags, chunk_size=64 * 1024, batch_size=2048):
    """The batch producer's tuples over ``xml``'s chunks, flattened."""
    return [ev for batch in PushBatchParser(tags).batches(
                coerce_source(xml).chunks(chunk_size), batch_size)
            for ev in batch]


def test_sax_batches_match_event_stream():
    tags = TagTable()
    expected = expected_tuples(BOUNDARY_XML, tags)
    assert parsed_tuples(BOUNDARY_XML, tags) == expected


def test_batch_size_does_not_change_content():
    tags1, tags2 = TagTable(), TagTable()
    one = parsed_tuples(BOUNDARY_XML, tags1, batch_size=1)
    big = parsed_tuples(BOUNDARY_XML, tags2, batch_size=4096)
    assert one == big


def test_batch_events_adapter_matches_parsers():
    tags1, tags2 = TagTable(), TagTable()
    via_adapter = [ev for batch in
                   batch_events(parse_events(BOUNDARY_XML), tags1)
                   for ev in batch]
    assert via_adapter == parsed_tuples(BOUNDARY_XML, tags2)


def test_fast_engine_accepts_event_iterables():
    events = list(parse_events(MATRIX_XML))
    query = "/pub/book[author]/name/text()"
    assert XSQEngineFast(query).run(events) == XSQEngineNC(query).run(
        MATRIX_XML)


# --------------------------------------------------------------------------
# Selection: fallbacks are never silent.
# --------------------------------------------------------------------------

UNSUPPORTED = [
    ("//a[@id]/text()", "closure-predicate"),
    ("/a[b]//c/text()", "closure-predicate"),
    ("/a//b", "closure-element-output"),
    ("/a[not(b)]/text()", "not-predicate"),
    ("/a[b or c]/text()", "or-predicate"),
    ("/a[b/c]/text()", "path-predicate"),
]


@pytest.mark.parametrize("query,slug", UNSUPPORTED)
def test_unsupported_queries_fall_back_visibly(query, slug):
    with pytest.raises(FastPathUnsupportedError) as info:
        XSQEngineFast(query)
    assert info.value.reason == slug
    compiled = repro.compile(query)
    assert compiled.engine_name in ("xsq-f", "xsq-nc")
    assert "fast path not selected: %s" % slug in compiled.explain()


def test_unsupported_reason_is_none_for_supported():
    from repro.xpath.parser import parse_query
    assert unsupported_reason(
        parse_query("/a[@id][b>1]/c/text()")) is None


def test_forced_fast_raises_on_unsupported():
    with pytest.raises(FastPathUnsupportedError):
        repro.compile("//a[b]/text()", engine="fast")
    with pytest.raises(FastPathUnsupportedError):
        repro.compile("/r/a/text() | /r/b/text()", engine="fast")


def test_selection_metrics():
    from repro.obs import Observability
    obs = Observability(spans=False, events=False)
    repro.compile("/a/b/text()", obs=obs, cache=False)
    repro.compile("//a/text()", obs=obs, cache=False)
    repro.compile("//a[b]/text()", obs=obs, cache=False)
    snapshot = obs.metrics.as_dict()
    assert snapshot['repro_engine_selection_total'
                    '{engine="xsq-fast",fastpath="selected"}'] == 2
    assert snapshot['repro_engine_selection_total'
                    '{engine="xsq-f",fastpath="fallback"}'] == 1
    assert snapshot['repro_fastpath_fallback_total'
                    '{reason="closure-predicate"}'] == 1


def test_per_event_observability_forces_interpreted():
    from repro.obs import Observability
    obs = Observability()  # events on by default
    compiled = repro.compile("/a/b/text()", obs=obs, cache=False)
    assert compiled.engine_name != "xsq-fast"
    assert "fast path not selected: observability" in compiled.explain()


def test_spans_and_metrics_only_obs_is_accepted():
    from repro.obs import Observability
    obs = Observability(spans=True, events=False)
    compiled = repro.compile("/a/b/text()", obs=obs, cache=False)
    assert compiled.engine_name == "xsq-fast"
    assert compiled.run("<a><b>x</b></a>") == ["x"]
    snapshot = obs.metrics.as_dict()
    assert any("repro_run_events_total" in key or "events" in key
               for key in snapshot)


def test_fastplan_memo_rides_compile_cache():
    from repro.xsq.compile_cache import HpdtCache, compile_hpdt
    cache = HpdtCache(maxsize=4)
    first = XSQEngineFast("/m/n/text()", cache=cache)
    second = XSQEngineFast("/m/n/text()", cache=cache)
    assert first.hpdt is second.hpdt
    assert first.plan is second.plan
    # the generated kernel memoizes on the plan, so it rides along
    assert first.kernel is not None
    assert first.kernel is second.kernel
    # explicit shared tags (the multiquery path) must bypass the memo
    shared = TagTable()
    plan = compile_fastplan(compile_hpdt("/m/n/text()", cache=cache),
                            shared)
    assert plan is not first.plan
    assert plan.tags is shared


def test_explain_names_the_runtime():
    assert "runtime: xsq-fast" in repro.compile("/a/b/text()").explain()
    assert "runtime: xsq-nc" in repro.compile(
        "/a/b/text()", engine="nc").explain()
    assert "runtime: xsq-f " in repro.compile(
        "/a/b/text()", engine="f").explain()
