"""Predicate-free closure queries run on a generated lazy-DFA kernel.

A ``//`` path without predicates lowers to a
:class:`~repro.xsq.fastpath.ClosurePlan` and runs on the closure-stack
kernel instead of XSQ-F's matcher.  The contract is XSQ-F's: the same
results in the same order and the same :class:`RunStats`, down to
``peak_instances``.  This suite checks it differentially, with
hypothesis drawing mixes of ``/``, ``//`` and ``*`` (repeated names
like ``//a//a`` included) and text, attribute and aggregate outputs,
over random documents, ``generate_recursive`` data and the Fig 15
corpora, through every mode: ``run()``, ``push()`` split at every
offset, ``iter_results()``, ``run_bulk(workers=1)`` and a
``SubscriptionBroker`` through churn.  It also bounds the lazily filled
transition table under streams of ever-new tag names, with two threads
feeding at once.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.dom import DomEngine
from repro.datagen import (
    generate_dblp,
    generate_nasa,
    generate_psd,
    generate_recursive,
    generate_shake,
)
from repro.serve import SubscriptionBroker
from repro.xsq.engine import RunStats, XSQEngine
from repro.xsq.fastpath import ClosurePlan, XSQEngineFast
from repro.xsq.multiquery import MultiQueryEngine

TAGS = ("a", "b", "c")
OUTPUTS = ("/text()", "/@id", "/count()", "/sum()")


@st.composite
def closure_queries(draw):
    """A predicate-free path with at least one ``//`` step."""
    count = draw(st.integers(1, 4))
    axes = draw(st.lists(st.sampled_from(("/", "//")),
                         min_size=count, max_size=count))
    if "//" not in axes:
        axes[draw(st.integers(0, count - 1))] = "//"
    tests = draw(st.lists(st.sampled_from(TAGS + ("*",)),
                          min_size=count, max_size=count))
    return "".join(axis + test for axis, test in zip(axes, tests)) \
        + draw(st.sampled_from(OUTPUTS))


@st.composite
def elements(draw, depth):
    tag = draw(st.sampled_from(TAGS + ("x",)))
    attrs = draw(st.dictionaries(st.just("id"),
                                 st.integers(0, 2).map(str), max_size=1))
    children = []
    if depth > 0:
        children = draw(st.lists(elements(depth=depth - 1), max_size=3))
    text = draw(st.one_of(st.just(""), st.integers(0, 3).map(str)))
    tail = draw(st.one_of(st.just(""), st.just("7")))
    return (tag, attrs, children, text, tail)


def render(node):
    tag, attrs, children, text, tail = node
    attr_text = "".join(' %s="%s"' % item for item in sorted(attrs.items()))
    inner = text + "".join(render(child) for child in children) + tail
    return "<%s%s>%s</%s>" % (tag, attr_text, inner, tag)


documents = elements(depth=4).map(render)


def expected_run(query, xml):
    """XSQ-F's results and stats, checked against the DOM oracle."""
    engine = XSQEngine(query)
    results = engine.run(xml)
    assert results == DomEngine(query).run(xml), query
    return results, engine.stats.as_dict()


def assert_kernel_matches(query, xml):
    expected, stats = expected_run(query, xml)
    fast = XSQEngineFast(query)
    assert isinstance(fast.plan, ClosurePlan), query
    assert fast.run(xml) == expected, query
    assert fast.stats.as_dict() == stats, query
    # iter_results yields an aggregate's intermediate values as well.
    assert list(fast.iter_results(xml)) \
        == list(XSQEngine(query).iter_results(xml)), query
    assert fast.stats.as_dict() == stats, query
    return expected, stats


def push_split(compiled, xml, offset):
    session = compiled.push()
    out = session.feed(xml[:offset])
    out += session.feed(xml[offset:])
    out += session.finish()
    return out


@settings(max_examples=150, deadline=None)
@given(query=closure_queries(), xml=documents)
def test_run_and_iter_match_xsq_f_and_dom(query, xml):
    assert_kernel_matches(query, xml)


@settings(max_examples=40, deadline=None)
@given(query=closure_queries(), xml=documents)
def test_push_at_every_offset_matches_run(query, xml):
    expected, stats = expected_run(query, xml)
    compiled = repro.compile(query)
    assert compiled.engine_name == "xsq-fast"
    for offset in range(len(xml) + 1):
        assert push_split(compiled, xml, offset) == expected, (query, offset)
        assert compiled.stats.as_dict() == stats, (query, offset)


@settings(max_examples=25, deadline=None)
@given(query=closure_queries(), docs=st.lists(documents, min_size=1,
                                               max_size=3))
def test_run_bulk_serial_matches_per_document_runs(query, docs):
    runs = [expected_run(query, xml) for xml in docs]
    bulk = repro.compile(query).run_bulk(docs, workers=1)
    assert bulk.results() == [results for results, _ in runs]
    assert bulk.stats.as_dict() == RunStats.totals(
        stats for _, stats in runs).as_dict()


def test_peak_instances_counts_matched_steps_of_open_elements():
    xml = ("<r><a><a><a><b>1</b></a></a></a>"
           "<a><x><b>2</b></x><b>3</b></a></r>")
    for query, peak in (("//a//a/text()", 5), ("/r//a/b/text()", 5),
                        ("/r/*//b/text()", 3)):
        _, stats = assert_kernel_matches(query, xml)
        assert stats["peak_instances"] == peak, query


def test_recursive_data():
    xml = generate_recursive(target_bytes=30_000, seed=5,
                             record_bytes=4_000)
    for query in ("//pub//book/name/text()", "//pub//pub//year/text()",
                  "/root/pub//book/@id", "//book//*/text()",
                  "//pub/*//name/text()", "//book/count()",
                  "//pub//year/sum()"):
        assert_kernel_matches(query, xml)


CORPORA = [
    (generate_shake, ("//SCENE//SPEAKER/text()", "//ACT//SPEAKER/text()",
                      "/PLAY//SPEECH/SPEAKER/text()", "/PLAY/*//LINE/text()",
                      "//SPEECH/count()")),
    (generate_nasa, ("//reference//name/text()", "//dataset//*/text()")),
    (generate_dblp, ("//inproceedings//author/text()",
                     "//dblp//title/text()", "//*/year/sum()")),
    (generate_psd, ("//refinfo//author/text()",
                    "/ProteinDatabase//ProteinEntry/@id")),
]


@pytest.mark.parametrize("generate,queries", CORPORA,
                         ids=[gen.__name__ for gen, _ in CORPORA])
def test_fig15_corpora(generate, queries):
    xml = generate(target_bytes=25_000, seed=3)
    for query in queries:
        expected, stats = assert_kernel_matches(query, xml)
        compiled = repro.compile(query)
        for offset in range(0, len(xml), 997):
            assert push_split(compiled, xml, offset) == expected
            assert compiled.stats.as_dict() == stats


# --------------------------------------------------------------------------
# Query groups: the mixed group and the serve broker.
# --------------------------------------------------------------------------

GROUP_QUERIES = (
    "//b/text()",
    "//a//a/text()",
    "/a//b/c/text()",
    "/a/*//c/@id",
    "//c/count()",
    # closure with predicates or element output: XSQ-F members
    "//b[c]/text()",
    "//a//c[@id=1]/text()",
    "//b",
    # child axis: the existing kernels
    "/a/b/text()",
)


@settings(max_examples=40, deadline=None)
@given(xml=documents.map(lambda doc: "<a>%s</a>" % doc))
def test_mixed_group_members_match_single_runs(xml):
    engine = MultiQueryEngine(GROUP_QUERIES)
    assert engine.member_runtimes == ["kernel"] * 5 + ["xsq-f"] * 3 \
        + ["kernel"]
    grouped = engine.run(xml)
    for query, results, stats in zip(GROUP_QUERIES, grouped,
                                      engine.last_stats):
        expected, expected_stats = expected_run(query, xml)
        assert results == expected, query
        assert stats.as_dict() == expected_stats, query


def stream(broker, xml, size):
    handle = broker.open_stream()
    out = []
    for start in range(0, len(xml), size):
        out += handle.feed(xml[start:start + size])
    out += handle.finish()
    return out


@settings(max_examples=30, deadline=None)
@given(docs=st.lists(documents.map(lambda doc: "<a>%s</a>" % doc),
                     min_size=2, max_size=4),
       size=st.sampled_from((7, 64, 4096)))
def test_broker_through_churn(docs, size):
    broker = SubscriptionBroker()
    sids = {}
    for query in GROUP_QUERIES + GROUP_QUERIES[:3]:  # with duplicates
        sids.setdefault(query, []).append(broker.subscribe(query))
    for number, xml in enumerate(docs):
        out = stream(broker, xml, size)
        _, engine = broker._snapshot_engine()
        members = [q.text for q in engine.queries]
        runtimes = dict(zip(members, engine.member_runtimes))
        stats = dict(zip(members, engine.last_stats))
        for query, owned in sids.items():
            expected, expected_stats = expected_run(query, xml)
            for sid in owned:
                assert [v for s, v in out if s == sid] == expected, query
            assert stats[query].as_dict() == expected_stats, query
            assert runtimes[query] == ("xsq-f" if "[" in query
                                       or query == "//b" else "kernel")
        # churn: drop one closure subscription, re-add it under a new id
        query = GROUP_QUERIES[number % 5]
        broker.unsubscribe(sids[query].pop(0))
        sids[query].append(broker.subscribe(query))


# --------------------------------------------------------------------------
# Bounded transitions under hostile tag streams.
# --------------------------------------------------------------------------

HOSTILE_QUERIES = ("//a//b/text()", "/r/*//b/text()", "//a/*/@id",
                   "//b/count()")


def hostile_doc(prefix, count):
    """``count`` fresh tag names, nested in runs of five around matches."""
    parts = ["<r>"]
    for start in range(0, count, 5):
        names = ["%s%d" % (prefix, i) for i in range(start, start + 5)]
        parts.append("".join("<%s>" % name for name in names))
        parts.append('<a id="%d"><%s0><b>%d</b></%s0></a>'
                     % (start, prefix, start, prefix))
        parts.append("".join("</%s>" % name for name in reversed(names)))
    parts.append("</r>")
    return "".join(parts)


def closure_plans(plans):
    found = [plan for plan in plans if isinstance(plan, ClosurePlan)]
    assert found
    return found


def assert_bounded(plan):
    assert plan.transition_count() <= plan.transition_bound()
    # A lost update under concurrent fills would mint a second state for
    # one pair of step sets.
    assert len({state[7] for state in plan.states}) == len(plan.states)
    assert [state[6] for state in plan.states] == list(range(len(plan.states)))
    # The bound is a function of the query alone: a handful of states
    # over the query's own alphabet, never the stream's tags.
    assert len(plan.states) <= 8
    assert plan.transition_bound() <= 8 * (len(plan.alphabet) + 1) * 2


def test_transition_tables_stay_bounded_under_fresh_tags():
    docs = [hostile_doc("t%d_" % i, 10_000) for i in range(2)]
    broker = SubscriptionBroker()
    for query in HOSTILE_QUERIES:
        broker.subscribe(query)
    _, engine = broker._snapshot_engine()
    single = XSQEngineFast("//a//b/text()", cache=False)
    for xml in docs:
        out = stream(broker, xml, 4096)
        assert len([v for _, v in out]) > 0
        assert single.run(xml) == XSQEngine("//a//b/text()").run(xml)
    _, same = broker._snapshot_engine()
    assert same is engine  # one long-lived engine saw every document
    for plan in closure_plans(engine._fast[1]) + [single.plan]:
        assert_bounded(plan)


def test_concurrent_streams_fill_one_table_identically():
    queries = HOSTILE_QUERIES
    docs = [hostile_doc("u%d_" % i, 2_000) for i in range(2)]
    serial = SubscriptionBroker()
    for query in queries:
        serial.subscribe(query)
    expected = [sorted(stream(serial, xml, 256)) for xml in docs]

    broker = SubscriptionBroker()
    sids = [broker.subscribe(query) for query in queries]
    assert sids == [entry["sub"] for entry in serial.describe()]
    single = XSQEngineFast("/r/*//b/text()", cache=False)
    single_expected = XSQEngine("/r/*//b/text()").run(docs[0])
    barrier = threading.Barrier(4)
    results = {}
    errors = []

    def feed_broker(index):
        try:
            barrier.wait()
            results[index] = sorted(stream(broker, docs[index], 256))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    def feed_single(index):
        try:
            barrier.wait()
            results["single%d" % index] = single.run(docs[0])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=feed_broker, args=(i,))
               for i in range(2)]
    threads += [threading.Thread(target=feed_single, args=(i,))
                for i in range(2)]
    # Switch threads as often as the interpreter allows, so fills of
    # one transition race.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert [results[0], results[1]] == expected
    assert results["single0"] == results["single1"] == single_expected
    _, engine = broker._snapshot_engine()
    for plan in closure_plans(engine._fast[1]) + [single.plan]:
        assert_bounded(plan)


# --------------------------------------------------------------------------
# Selection and reporting.
# --------------------------------------------------------------------------

def test_auto_selects_the_kernel_and_names_its_shape():
    compiled = repro.compile("//a//b/text()")
    assert compiled.engine_name == "xsq-fast"
    assert compiled.engine.kernel is not None
    assert "closure stack (lazy DFA)" in compiled.engine.kernel_note
    assert "lazy DFA" in compiled.explain()


def test_closure_kernels_share_one_function_per_shape():
    first = XSQEngineFast("//a//b/text()", cache=False)
    second = XSQEngineFast("/r//c/text()", cache=False)
    wild = XSQEngineFast("/r/*//c/text()", cache=False)
    assert first.kernel is second.kernel
    assert first.kernel is not wild.kernel
