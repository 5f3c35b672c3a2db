"""The broker evaluates each distinct query once and fans results out.

:class:`repro.serve.SubscriptionBroker` groups subscriptions by
canonical query text, builds its grouped engine over the distinct texts
only, and keeps that engine across every registry change that leaves
the distinct set as it was.  The differential property below draws
subscription multisets with duplicates over every query class the
mixed group runs (child-axis and closure kernels, closure-predicate
and ``not()``/``or()`` matchers, predicates, aggregates) and compares
each subscription's results with an independent
``repro.compile(q).run()``, at several chunk splits, with a churn
between documents.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro
from repro.serve import SubscriptionBroker
from repro.xsq.multiquery import MultiQueryEngine

TAGS = ("a", "b", "c")

QUERIES = (
    # child axis: generated kernels
    "/a/b/text()",
    "/a/b/c/text()",
    "/a/b[@id]/c/text()",
    "/a/b[c>1]/text()",
    "/a/b[c]/@id",
    "/a/b",
    # predicate-free closure: closure-stack kernels
    "//b/text()",
    "//b//c/text()",
    # closure with a predicate: interpreted
    "/a//c[@id=1]/text()",
    # not() / or(): interpreted
    "/a/b[not(c)]/@id",
    "/a/b[c=1 or @id=2]/text()",
    # aggregates: one on a kernel, one interpreted
    "/a/b/c/count()",
    "//c/sum()",
)


@st.composite
def elements(draw, depth):
    tag = draw(st.sampled_from(TAGS))
    attrs = draw(st.dictionaries(st.just("id"),
                                 st.integers(0, 2).map(str), max_size=1))
    children = []
    if depth > 0:
        children = draw(st.lists(elements(depth=depth - 1), max_size=3))
    text = draw(st.one_of(st.just(""), st.integers(0, 3).map(str)))
    return (tag, attrs, children, text)


def render(node, root=False):
    tag, attrs, children, text = node
    tag = "a" if root else tag
    attr_text = "".join(' %s="%s"' % item for item in sorted(attrs.items()))
    inner = text + "".join(render(child) for child in children)
    return "<%s%s>%s</%s>" % (tag, attr_text, inner, tag)


documents = elements(depth=3).map(lambda node: render(node, root=True))


def chunked(doc, size):
    if size is None:
        return [doc]
    return [doc[index:index + size] for index in range(0, len(doc), size)]


def stream_document(broker, doc, size):
    stream = broker.open_stream()
    out = []
    for chunk in chunked(doc, size):
        out += stream.feed(chunk)
    out += stream.finish()
    return out


@settings(max_examples=60, deadline=None)
@given(subscriptions=st.lists(st.sampled_from(QUERIES), min_size=1,
                              max_size=8),
       docs=st.lists(documents, min_size=2, max_size=3),
       size=st.sampled_from((1, 5, 64, None)),
       churn=st.integers(0, 7))
def test_broker_equals_independent_compiles(subscriptions, docs, size,
                                            churn):
    broker = SubscriptionBroker()
    active = [broker.subscribe(query) for query in subscriptions]
    query_of = dict(zip(active, subscriptions))
    for number, doc in enumerate(docs):
        if number:
            # Drop one subscription and register its query again.
            slot = (churn + number) % len(active)
            old = active[slot]
            assert broker.unsubscribe(old)
            active[slot] = broker.subscribe(query_of[old])
            query_of[active[slot]] = query_of[old]
        got = {}
        for sid, value in stream_document(broker, doc, size):
            got.setdefault(sid, []).append(value)
        assert set(got) <= set(active)
        for sid in active:
            expected = repro.compile(query_of[sid]).run(doc)
            assert got.get(sid, []) == expected, (query_of[sid], doc)


DOC = ("<a><b id=\"1\"><c>2</c></b><b><c>1</c></b>"
       "<b id=\"2\">t</b></a>")


def build_counter(monkeypatch):
    """Count grouped-engine builds."""
    builds = []
    original = MultiQueryEngine.__init__

    def counting(self, queries, *args, **kwargs):
        builds.append([getattr(q, "text", q) for q in queries])
        original(self, queries, *args, **kwargs)

    monkeypatch.setattr(MultiQueryEngine, "__init__", counting)
    return builds


class TestEngineReuse:
    def test_engine_built_over_distinct_texts(self, monkeypatch):
        builds = build_counter(monkeypatch)
        broker = SubscriptionBroker()
        for query in ("/a/b/text()", "//c/text()", "/a/b/text()",
                      "/a/b/text()"):
            broker.subscribe(query)
        stream_document(broker, DOC, 4)
        assert builds == [["/a/b/text()", "//c/text()"]]

    def test_duplicate_drop_and_readd_keeps_engine(self, monkeypatch):
        builds = build_counter(monkeypatch)
        broker = SubscriptionBroker()
        first = broker.subscribe("/a/b/text()")
        second = broker.subscribe("/a/b/text()")
        broker.subscribe("//c/text()")
        _, engine = broker._snapshot_engine()
        broker.unsubscribe(second)
        assert broker._snapshot_engine()[1] is engine
        again = broker.subscribe("/a/b/text()")
        assert broker._snapshot_engine()[1] is engine
        # A churn of the text's only holder between documents: the
        # distinct set is the same again when the next document opens.
        broker.unsubscribe(first)
        broker.unsubscribe(again)
        broker.subscribe("/a/b/text()")
        assert broker._snapshot_engine()[1] is engine
        assert len(builds) == 1

    def test_new_distinct_text_rebuilds(self, monkeypatch):
        builds = build_counter(monkeypatch)
        broker = SubscriptionBroker()
        broker.subscribe("/a/b/text()")
        _, engine = broker._snapshot_engine()
        broker.subscribe("/a/b/c/text()")
        assert broker._snapshot_engine()[1] is not engine
        assert len(builds) == 2

    def test_dropping_a_distinct_text_rebuilds(self):
        broker = SubscriptionBroker()
        broker.subscribe("/a/b/text()")
        gone = broker.subscribe("//c/text()")
        _, engine = broker._snapshot_engine()
        broker.unsubscribe(gone)
        _, rebuilt = broker._snapshot_engine()
        assert rebuilt is not engine
        assert [q.text for q in rebuilt.queries] == ["/a/b/text()"]

    def test_results_fan_out_to_every_duplicate(self):
        broker = SubscriptionBroker()
        sids = [broker.subscribe("/a/b/c/text()") for _ in range(3)]
        out = stream_document(broker, DOC, 3)
        for sid in sids:
            assert [v for s, v in out if s == sid] == ["2", "1"]
        for entry in broker.describe():
            assert entry["results"] == 2
            assert entry["documents"] == 1


class TestRuntimeReporting:
    def test_describe_names_member_runtime_and_distinct_count(self):
        broker = SubscriptionBroker()
        kernel = broker.subscribe("/a/b/text()")
        twin = broker.subscribe("/a/b/text()")
        closure = broker.subscribe("//c[@id]/text()")
        plain_closure = broker.subscribe("//c/text()")
        negated = broker.subscribe("/a/b[not(c)]/@id")
        described = {entry["sub"]: entry for entry in broker.describe()}
        assert described[kernel]["runtime"] == "kernel"
        assert described[twin]["runtime"] == "kernel"
        assert described[closure]["runtime"] == "xsq-f"
        assert described[plain_closure]["runtime"] == "kernel"
        assert described[negated]["runtime"] == "xsq-f"
        assert {entry["distinct_queries"]
                for entry in described.values()} == {4}

    def test_selection_notes_name_each_member_runtime(self):
        engine = MultiQueryEngine(["/a/b/text()", "//c[@id]/text()",
                                   "//c/text()"])
        kernel_note, closure_note, plain_closure_note = \
            engine.member_selection_notes()
        assert "— kernel (generated kernel" in kernel_note
        assert "— xsq-f (fast path not selected: closure-predicate)" \
            in closure_note
        assert "— kernel (generated kernel" in plain_closure_note
        assert "closure stack (lazy DFA)" in plain_closure_note
        for note in (kernel_note, closure_note, plain_closure_note):
            assert "keep the group interpreted" not in note
