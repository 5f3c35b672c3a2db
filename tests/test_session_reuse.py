"""The query group resets its members between documents.

A plain group session borrows its engine's idle member set (runtimes,
output queues, aggregate buffers, sub-batches and the tables bound over
them) and gives it back, reset, at a successful ``finish()``.  These
tests drive one :class:`repro.serve.SubscriptionBroker` over a stream
of generated documents in 256-byte chunks and check that reuse never
shows: every document's results and every member's ``RunStats`` equal
a fresh :class:`~repro.xsq.multiquery.MultiQueryEngine` run and the DOM
oracle, across malformed documents, interleaved streams and churn, and
a reset leaves nothing of the previous document reachable.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro.baselines.dom import build_dom, evaluate
from repro.datagen.dblp import generate_dblp
from repro.datagen.shake import generate_shake
from repro.errors import StreamError
from repro.serve import SubscriptionBroker
from repro.xsq.engine import RunStats
from repro.xsq.fastpath import FastRuntime
from repro.xsq.matcher import MatcherRuntime
from repro.xsq.multiquery import MultiQueryEngine

CHUNK = 256

QUERIES = (
    # child-axis kernels, text, aggregate and element output
    "/PLAY/ACT/SCENE/SPEECH[SPEAKER]/LINE/text()",
    "/PLAY/ACT/SCENE/SPEECH[LINE]/SPEAKER",
    "/dblp/inproceedings[author]/title/text()",
    "/dblp/article[year>2000]/title/text()",
    # predicate-free closure kernels
    "//SPEAKER/text()",
    "//LINE/count()",
    # closures with predicates: XSQ-F members
    '//SPEECH[SPEAKER="OPHELIA"]/LINE/text()',
    "/dblp//inproceedings[booktitle]/pages/text()",
    "//SPEECH[SPEAKER]/LINE/count()",
    "//SCENE//SPEECH[SPEAKER]",
)

#: Subscriptions: every query once, some twice (duplicates fan out).
SUBSCRIPTIONS = QUERIES + QUERIES[::3]


def documents(count=52):
    """Small SHAKE and DBLP documents, alternating."""
    docs = []
    for seed in range(count):
        if seed % 2:
            docs.append(generate_dblp(1500 + 97 * seed, seed=seed))
        else:
            docs.append(generate_shake(1500 + 97 * seed, seed=seed))
    return docs


def chunks(xml):
    blob = xml.encode("utf-8")
    return [blob[i:i + CHUNK] for i in range(0, len(blob), CHUNK)]


def make_broker():
    broker = SubscriptionBroker()
    sids = [broker.subscribe(query) for query in SUBSCRIPTIONS]
    return broker, dict(zip(sids, SUBSCRIPTIONS))


def stream_document(broker, xml):
    stream = broker.open_stream()
    out = []
    for chunk in chunks(xml):
        out.extend(stream.feed(chunk))
    out.extend(stream.finish())
    return stream, out


def by_sid(pairs):
    got = {}
    for sid, value in pairs:
        got.setdefault(sid, []).append(value)
    return got


def check_document(broker, query_of, xml, pairs):
    """Each subscription's results equal a fresh group run and the DOM
    oracle, and every member's stats equal the fresh run's."""
    engine = broker._snapshot_engine()[1]
    texts = [query.text for query in engine.queries]
    fresh = MultiQueryEngine(texts)
    expected = dict(zip(texts, fresh.run(xml)))
    dom = build_dom(xml)
    got = by_sid(pairs)
    for sid, query in query_of.items():
        assert got.pop(sid, []) == expected[query], query
        assert expected[query] == evaluate(dom, query), query
    assert not got
    assert ([run.as_dict() for run in engine.last_stats]
            == [run.as_dict() for run in fresh.last_stats])


def test_results_and_stats_match_fresh_runs_across_documents():
    broker, query_of = make_broker()
    engine = broker._snapshot_engine()[1]
    runtimes = set(engine.member_runtimes)
    assert runtimes == {"kernel", "xsq-f"}
    idle = None
    for xml in documents():
        _stream, pairs = stream_document(broker, xml)
        check_document(broker, query_of, xml, pairs)
        assert len(engine._idle) == 1
        if idle is not None:
            # The same members served every document.
            assert engine._idle[0] is idle
        idle = engine._idle[0]


def test_documents_after_a_malformed_one_stay_correct():
    broker, query_of = make_broker()
    docs = documents(6)
    for xml in docs[:2]:
        _stream, pairs = stream_document(broker, xml)
        check_document(broker, query_of, xml, pairs)
    # A well-formed prefix that opens buffered items, then an error.
    broken = docs[2][:len(docs[2]) // 2] + "</NOT-OPEN>" + docs[2]
    stream = broker.open_stream()
    with pytest.raises(StreamError):
        for chunk in chunks(broken):
            stream.feed(chunk)
        stream.finish()
    for xml in docs[3:]:
        _stream, pairs = stream_document(broker, xml)
        check_document(broker, query_of, xml, pairs)


def test_interleaved_streams_on_one_snapshot():
    broker, query_of = make_broker()
    docs = documents(8)
    engine = broker._snapshot_engine()[1]
    stream_document(broker, docs[0])
    for first, second in ((docs[1], docs[2]), (docs[3], docs[4]),
                          (docs[5], docs[6])):
        one, two = broker.open_stream(), broker.open_stream()
        assert one._handle._members is not two._handle._members
        parts = [chunks(first), chunks(second)]
        outs = [[], []]
        for i in range(max(map(len, parts))):
            for k, stream in enumerate((one, two)):
                if i < len(parts[k]):
                    outs[k].extend(stream.feed(parts[k][i]))
        outs[0].extend(one.finish())
        check_document(broker, query_of, first, outs[0])
        outs[1].extend(two.finish())
        check_document(broker, query_of, second, outs[1])
        # At most one idle set is kept.
        assert len(engine._idle) == 1
    _stream, pairs = stream_document(broker, docs[7])
    check_document(broker, query_of, docs[7], pairs)


def test_finished_stream_keeps_its_event_count():
    broker, _query_of = make_broker()
    docs = documents(3)
    first, _pairs = stream_document(broker, docs[0])
    fed = first.events_fed
    assert fed > 0
    assert first._handle._members is None
    second = broker.open_stream()
    for chunk in chunks(docs[2]):
        second.feed(chunk)
    assert first.events_fed == fed
    second.finish()
    assert first.events_fed == fed
    assert second.events_fed != fed
    third, _pairs = stream_document(broker, docs[0])
    assert third.events_fed == fed


def test_churn_of_distinct_queries_drops_the_old_idle_set():
    broker, query_of = make_broker()
    docs = documents(4)
    stream, _pairs = stream_document(broker, docs[0])
    old = broker._snapshot_engine()[1]
    old_engine = weakref.ref(old)
    old_members = weakref.ref(old._idle[0])
    del stream, old
    extra = broker.subscribe("/PLAY/TITLE/text()")
    query_of[extra] = "/PLAY/TITLE/text()"
    for xml in docs[1:]:
        _stream, pairs = stream_document(broker, xml)
        check_document(broker, query_of, xml, pairs)
    del _stream
    gc.collect()
    assert old_engine() is None
    assert old_members() is None
    new = broker._snapshot_engine()[1]
    assert len(new._idle) == 1


def reachable_strings(root):
    """Every str reachable from ``root`` through containers and
    instances (not through functions, classes or modules)."""
    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.CodeType)
    seen = set()
    found = set()
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            found.add(obj)
        elif not isinstance(obj, opaque):
            todo.extend(gc.get_referents(obj))
    return found


MARKED = ("<PLAY><TITLE>t</TITLE><ACT><SCENE>"
          "<SPEECH><SPEAKER>OPHELIA</SPEAKER><LINE>mark-line-1</LINE>"
          "<LINE>mark-line-2</LINE></SPEECH>"
          "<SPEECH><LINE>mark-line-3</LINE><SPEAKER>mark-speaker</SPEAKER>"
          "</SPEECH></SCENE></ACT></PLAY>")
MARKS = {"mark-line-1", "mark-line-2", "mark-line-3", "mark-speaker"}


def test_reset_leaves_nothing_of_the_last_document_reachable():
    broker, query_of = make_broker()
    engine = broker._snapshot_engine()[1]
    stream_document(broker, documents(1)[0])
    # Mid-document the marks are buffered in the members ...
    stream = broker.open_stream()
    cut = MARKED.index("</SPEECH>", MARKED.index("mark-speaker"))
    pairs = stream.feed(MARKED[:cut])
    members = stream._handle._members
    assert MARKS & reachable_strings(members)
    pairs += stream.feed(MARKED[cut:]) + stream.finish()
    check_document(broker, query_of, MARKED, pairs)
    # ... and after finish() the reset idle set holds none of them.
    assert engine._idle == [members]
    assert not MARKS & reachable_strings(members)
    assert all(not sink for sink in members.sinks)
    assert all(not sub for sub in members.subs)
    kinds = set()
    for runtime in members.runtimes:
        kinds.add(type(runtime))
        queue = runtime.queue
        assert len(queue) == 0 and queue._head is None \
            and queue._tail is None and queue.emitted_seqs == []
        assert queue.enqueued_total == queue.emitted_total == 0
        assert runtime.peak_instances == 0
        if runtime.stat is not None:
            assert runtime.stat.contributions == 0
        if isinstance(runtime, MatcherRuntime):
            (root,) = runtime.stack
            assert not root.instances and root.element_item is None
            assert runtime._serializing == [] and runtime._trackers == []
        elif runtime._closure:
            assert runtime.stack == [(0, runtime.plan.root, 0)]
            assert runtime.results == 0
        else:
            assert runtime.matched == 0
            assert runtime.inst_stack == [None] * runtime.plan.n
            assert runtime._cap_parts is None and runtime._cap_item is None
    assert kinds == {FastRuntime, MatcherRuntime}


#: No member needs every tag, so a document reaches only the members
#: whose tags it carries.
SPARSE_QUERIES = (
    "/x/y/text()",
    "/x/y[@k]/count()",
    "/dblp/article/title/text()",
    "/dblp/inproceedings[author]/title/text()",
    "//SPEAKER/text()",
    "//LINE/count()",
    '//SPEECH[SPEAKER="OPHELIA"]/LINE/text()',
    "/dblp//inproceedings[booktitle]/pages/text()",
)

SPARSE_DOCS = (
    "<x><y k='1'>1</y><y>2</y></x>",
    "<r><LINE>l</LINE><LINE>m</LINE></r>",
    "<dblp><article><title>T</title></article></dblp>",
    "<w><z>no member</z></w>",
) + tuple(documents(4))


def test_documents_that_reach_one_member_of_many():
    """A document that reaches few members finishes, stats and resets
    only those; the others report their reset-state stats.  Results
    and every member's stats equal a fresh engine's, whether the fresh
    one finishes every member (an ordered push session) or not."""
    broker = SubscriptionBroker()
    sids = [broker.subscribe(query) for query in SPARSE_QUERIES]
    query_of = dict(zip(sids, SPARSE_QUERIES))
    engine = broker._snapshot_engine()[1]
    assert set(engine.member_runtimes) == {"kernel", "xsq-f"}
    assert not engine._fast[3]
    stream_document(broker, SPARSE_DOCS[-1])
    members = engine._idle[0]
    finished = [0] * len(members.runtimes)

    def spy(i, finish):
        def counted():
            finished[i] += 1
            finish()
        return counted

    for i, runtime in enumerate(members.runtimes):
        runtime.finish = spy(i, runtime.finish)
    for xml in SPARSE_DOCS:
        finished[:] = [0] * len(finished)
        _stream, pairs = stream_document(broker, xml)
        check_document(broker, query_of, xml, pairs)
        ordered = MultiQueryEngine(SPARSE_QUERIES)
        list(ordered.iter_results(xml))
        assert ([run.as_dict() for run in engine.last_stats]
                == [run.as_dict() for run in ordered.last_stats])
        assert engine._idle == [members]
        assert not any(members.ran)
        if xml.startswith("<x><y"):
            # Only the two /x/y members ran.
            assert finished == [1, 1] + [0] * (len(finished) - 2)
            assert [run.events for run in engine.last_stats] \
                == [8] * len(finished)
        elif xml.startswith("<w>"):
            # No member ran: every one reports its reset state.
            assert finished == [0] * len(finished)
            assert [run.as_dict() for run in engine.last_stats] \
                == [RunStats(events=5).as_dict()] * len(finished)
