"""The query group's one session, in stream order.

``push()`` (raw chunks split anywhere, or pre-built events) and
``iter_results()`` on a query set open the same group session as
``run()`` and the serve broker, with the same per-member runtimes, but
fed one parsed tuple at a time.  Their ``(query_index, value)`` pairs
must therefore come out in stream order across members, identically
in every mode and under either lowering (kernel members, or every
member on XSQ-F), with the same per-member ``RunStats``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

import repro
from repro.obs import Observability
from repro.streaming.sax_source import parse_events
from repro.xsq.fastpath import FastRuntime
from repro.xsq.matcher import MatcherRuntime

#: Members of every runtime kind the group lowers to.
POOL = [
    # child-axis kernels: plain, predicated, wildcard, attribute and
    # element output
    "/r/a/text()", "/r/a[@id]/b/text()", "/r/a[b]/c/text()",
    "/r/*/text()", "/r/a/@id", "/r/a",
    # closure kernels (predicate-free `//`)
    "//a/text()", "//b/@id", "/r//c/text()",
    # XSQ-F members: closures with predicates or element output,
    # not()/or(), path predicates
    "//a[b]/text()", "/r/a[not(b)]/text()", "/r/a[b or c]/text()",
    "//a", "/r/a[b/c]/text()",
    # aggregates
    "/r/a/count()", "//b/count()", "/r/a/c/sum()",
]

TAGS = ("a", "b", "c")


@st.composite
def elements(draw, depth):
    tag = draw(st.sampled_from(TAGS))
    attrs = draw(st.dictionaries(st.just("id"), st.integers(0, 2).map(str),
                                 max_size=1))
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


documents = st.lists(elements(depth=2), max_size=3).map(
    lambda children: render(("r", {}, children, [])))

#: Sets drawn with replacement, so duplicate members occur.
query_sets = st.lists(st.sampled_from(POOL), min_size=1, max_size=5)


PER_EVENT_ONLY = Observability(spans=False, metrics=False, events=False,
                               per_event_timing=True)


def _stats(compiled):
    return [run.as_dict() for run in compiled.per_query_stats]


def _ordered_modes(compiled, xml):
    """``(label, pairs, per-member stats)`` for every ordered mode."""
    out = []
    pairs = list(compiled.iter_results(xml))
    out.append(("iter_results", pairs, _stats(compiled)))
    session = compiled.push()
    pairs = session.feed_events(parse_events(xml)) + session.finish()
    out.append(("feed_events", pairs, _stats(compiled)))
    for offset in range(len(xml) + 1):
        session = compiled.push()
        pairs = session.feed(xml[:offset])
        pairs += session.feed(xml[offset:])
        pairs += session.finish()
        out.append(("push split at %d" % offset, pairs, _stats(compiled)))
    return out


@settings(max_examples=30, deadline=None)
@given(xml=documents, queries=query_sets)
def test_ordered_modes_agree_under_both_lowerings(xml, queries):
    kernel = repro.compile(queries)
    # A per-event instrument lowers every member to XSQ-F; per-event
    # timing alone records nothing into RunStats.
    interpreted = repro.compile(queries, obs=PER_EVENT_ONLY)
    assert set(interpreted.engine.member_runtimes) == {"xsq-f"}
    expected_lists = kernel.run(xml)
    expected_stats = _stats(kernel)
    expected = None
    for compiled in (kernel, interpreted):
        assert compiled.run(xml) == expected_lists
        for label, pairs, stats in _ordered_modes(compiled, xml):
            if expected is None:
                expected = pairs
            assert pairs == expected, (label, queries, xml)
            assert stats == expected_stats, (label, queries, xml)
    # Each member's subsequence of the pairs is its run() result.
    for index, values in enumerate(expected_lists):
        assert [v for i, v in expected if i == index] == values


def test_pairs_interleave_in_stream_order():
    xml = "<r><a>1</a><b>2</b><a>3</a><b>4</b></r>"
    compiled = repro.compile(["/r/b/text()", "//a/text()",
                              "//a[b]/text()", "/r/a/count()"])
    assert compiled.engine.member_runtimes == [
        "kernel", "kernel", "xsq-f", "kernel"]
    assert list(compiled.iter_results(xml)) == [
        (1, "1"), (0, "2"), (1, "3"), (0, "4"), (3, "2")]


def test_push_session_runs_kernels():
    compiled = repro.compile(["/r/a/text()", "//b/text()",
                              "//a[b]/text()"])
    assert compiled.engine.member_runtimes == ["kernel", "kernel", "xsq-f"]
    notes = compiled.explain()
    assert "member 0: /r/a/text() — kernel" in notes
    assert "member 1: //b/text() — kernel" in notes
    assert ("member 2: //a[b]/text() — xsq-f "
            "(fast path not selected: closure-predicate)") in notes
    session = compiled.push()
    runtimes = session._handle._members.runtimes
    assert [type(r) for r in runtimes] == [FastRuntime, FastRuntime,
                                           MatcherRuntime]
    # Member 2's "x" is determined at <b>, before member 1's "y".
    pairs = session.feed("<r><a>x<b>y</b></a>")
    assert pairs == [(0, "x"), (2, "x"), (1, "y")]
    assert session.feed("</r>") == []
    assert session.finish() == []


def test_obs_session_lowers_every_member_interpreted():
    from repro.obs import Observability
    compiled = repro.compile(["/r/a/text()", "//b/text()"],
                             obs=Observability(spans=False))
    assert compiled.engine.member_runtimes == ["xsq-f", "xsq-f"]
    assert not compiled.engine._fast[0].closed
    xml = "<r><a>1</a><b>2</b><c/></r>"
    assert list(compiled.iter_results(xml)) == [(0, "1"), (1, "2")]
    # The hooks saw every event: the open table dropped none.
    assert compiled.per_query_stats[0].events == 10


def test_spans_and_metrics_bundle_keeps_the_kernels():
    """One obs rule for single queries and sets: only a per-event
    instrument lowers members to XSQ-F."""
    queries = ["/r/a/text()", "//b/text()", "//a[b]/text()",
               "/r/a/count()"]
    xml = "<r><a>x<b>y</b></a><c>z</c><a>w</a></r>"
    plain = repro.compile(queries)
    expected_lists = plain.run(xml)
    expected_stats = _stats(plain)
    expected_pairs = list(plain.iter_results(xml))
    for label, mode in (("run", lambda c: c.run(xml)),
                        ("iter_results",
                         lambda c: list(c.iter_results(xml))),
                        ("push", lambda c: c.feed(xml[:9])
                         + c.feed(xml[9:]) + c.finish())):
        obs = Observability(spans=True, metrics=True, events=False)
        compiled = repro.compile(queries, obs=obs)
        assert compiled.engine.member_runtimes == [
            "kernel", "kernel", "xsq-f", "kernel"]
        assert "per-event observability" not in compiled.explain()
        out = mode(compiled)
        assert out == (expected_lists if label == "run"
                       else expected_pairs), label
        assert _stats(compiled) == expected_stats, label
        # The table stays open and the loop ordered: the fanout
        # histogram sees every event of the stream.
        key = 'repro_dispatch_fanout_queries_count{engine="multiquery"}'
        assert obs.metrics.as_dict()[key] == compiled.stats.events, label
