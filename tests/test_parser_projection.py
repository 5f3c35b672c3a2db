"""Parser projection: no tuple for a tag no compiled plan can react to.

A plan that names every tag it can react to (no ``*`` node test or
predicate child, no element output) closes its
:class:`~repro.xsq.fastpath.TagTable` when lowering ends, and so does a
query group with no greedy member.  The batch parsers then build no
tuple for a tag the table lacks; they only count it, so results and
every ``RunStats`` field, ``events`` included, are what the
unprojected run reports.  This suite checks that differentially over
documents with noise elements at every depth (mixed content around
them, CDATA, entities and comments inside them), for every kernel
shape and every mode, and that a closed table never grows.
"""

from __future__ import annotations

import random
import threading

import pytest

import repro
from repro.baselines.dom import DomEngine
from repro.serve import SubscriptionBroker
from repro.streaming.events import Batch, batch_events
from repro.streaming.push import PushBatchParser, PushEventParser
from repro.streaming.sax_source import parse_events
from repro.streaming.source import coerce_source
from repro.xsq.engine import RunStats, XSQEngine
from repro.xsq.fastpath import ClosurePlan, TagTable, XSQEngineFast
from repro.xsq.multiquery import MultiQueryEngine
from repro.xsq.nc import XSQEngineNC

# query -> the kernel shape it must lower to (a substring of the note).
PROJECTED = {
    "/r/a/b/text()": "linear chain",
    "/r/a[@k]/b/text()": "begin-resolved",
    "/r/a[text()='1']/b/text()": "general",
    "/r/a[c]/b/text()": "general",
    "/r/a[c@k]/b/text()": "general",
    "/r/a[c@k=2]/b/text()": "general",
    "/r/a[c='1']/b/text()": "general",
    "/r/a[c][@k]/b[text()]/text()": "general",
    "/r/a/text()": "linear chain",
    "//a//b/text()": "closure stack",
    "/r//b/@k": "closure stack",
    "//b/count()": "closure stack",
    "/r/a/b/@k": "linear chain",
    "/r/a/b/count()": "linear chain",
    "/r/a[c]/b/sum()": "general",
}

# Plans that need every tag keep an open table.
OPEN = {
    "/r/a/*/text()": "wildcard",
    "/r/a[*]/b/text()": "wildcard",
    "/r/a/b": "element output",
    "/r/*": "element output, wildcard",
}

NOISE_BODIES = ("", "x", "<![CDATA[<b>1</b>]]>", "&amp;&#65;&lt;",
                "<!-- c --> 2", "<?pi d?>3", "  ")


def noisy_document(seed: int, depth: int = 4) -> str:
    """A document over r/a/b/c with noise elements ``n``/``m`` at every
    depth: kept elements get mixed content around noise children, and
    noise elements carry CDATA, entities, comments and kept-named
    descendants (which the kernels must still see)."""
    rng = random.Random(seed)
    # Tags by depth below <r>: mostly a, then b/c, then anything.
    by_depth = (("a", "a", "b"), ("b", "c", "b", "a"), ("a", "b", "c"))

    def noise(level, below):
        tag = rng.choice(("n", "m"))
        body = rng.choice(NOISE_BODIES)
        inner = ""
        if level > 0 and rng.random() < 0.5:
            inner = element(level - 1, below + 1)
        return "<%s%s>%s%s%s</%s>" % (
            tag, ' k="1"' if rng.random() < 0.3 else "", body, inner,
            rng.choice(NOISE_BODIES), tag)

    def element(level, below):
        tag = rng.choice(by_depth[min(below, 2)])
        attrs = ' k="%d"' % rng.randint(1, 3) if rng.random() < 0.6 else ""
        parts = [rng.choice(("", "1", "2", " "))]
        for _ in range(rng.randint(1, 3) if level > 0 else 0):
            parts.append(noise(level - 1, below + 1) if rng.random() < 0.3
                         else element(level - 1, below + 1))
            parts.append(rng.choice(("", "1", "t", "2")))
        if rng.random() < 0.5:
            parts.insert(rng.randint(0, len(parts)),
                         noise(level - 1, below + 1))
        return "<%s%s>%s</%s>" % (tag, attrs, "".join(parts), tag)

    body = "".join(noise(depth, 0) if rng.random() < 0.2
                   else element(depth, 0) for _ in range(4))
    return "<r>%s<n>&lt;<![CDATA[x]]><!-- z --></n>%s</r>" % (body, "9")


DOCS = [noisy_document(seed) for seed in range(8)]
# A kept parent's text split by a dropped child, at every level.
SPLIT = ("<r><a k='1'>1<n>x<b>in</b></n>2<b k='2'>b1<m/>b2</b>"
         "<c k='2'>1<n/>1</c></a><a>t<b>u</b></a></r>")
DOCS.append(SPLIT)
SMALL = noisy_document(11, depth=2)


def reference(query):
    """XSQ-F for closures (the closure kernel's contract), else XSQ-NC."""
    return XSQEngine(query) if "//" in query else XSQEngineNC(query)


def expected_run(query, xml):
    engine = reference(query)
    results = engine.run(xml)
    assert results == DomEngine(query).run(xml), (query, xml)
    return results, engine.stats.as_dict()


def full_event_count(xml):
    return sum(1 for _ in parse_events(xml))


def push_split(compiled, xml, offset):
    session = compiled.push()
    out = session.feed(xml[:offset])
    out += session.feed(xml[offset:])
    out += session.finish()
    return out, session.events_fed


# --------------------------------------------------------------------------
# Which plans close their table.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("query", sorted(PROJECTED))
def test_projected_plans_close_their_table(query):
    engine = XSQEngineFast(query, cache=False)
    assert engine.plan.tags.closed, query
    assert PROJECTED[query] in engine.kernel_note, engine.kernel_note
    assert isinstance(engine.plan, ClosurePlan) == ("//" in query)


@pytest.mark.parametrize("query", sorted(OPEN))
def test_plans_needing_every_tag_stay_open(query):
    engine = XSQEngineFast(query, cache=False)
    assert not engine.plan.tags.closed, query


def test_closed_table_never_interns():
    tags = TagTable()
    assert tags.intern("a") == 0
    tags.close()
    assert tags.intern("a") == 0
    assert tags.intern("fresh") is None
    assert len(tags) == 1 and tags.get("fresh") is None
    assert "closed" in repr(tags)


# --------------------------------------------------------------------------
# The tuple stream itself.
# --------------------------------------------------------------------------

def flatten(batches):
    tuples, dropped = [], 0
    for batch in batches:
        tuples.extend(batch)
        dropped += getattr(batch, "dropped", 0)
    return tuples, dropped


def named(tuples, tags):
    return [(kind, tags.names[tid], payload, depth)
            for kind, tid, payload, depth in tuples]


def full_stream(xml):
    """The unprojected tuple stream, parsed 7 characters at a time."""
    tags = TagTable()
    return named(flatten(PushBatchParser(tags).batches(
        coerce_source(xml).chunks(7)))[0], tags)


@pytest.mark.parametrize("xml", DOCS)
@pytest.mark.parametrize("query", sorted(OPEN))
def test_open_tables_yield_the_full_tuple_stream(query, xml):
    tags = XSQEngineFast(query, cache=False).plan.tags
    tuples, dropped = flatten(coerce_source(xml).batches(tags))
    assert dropped == 0
    assert named(tuples, tags) == full_stream(xml)


@pytest.mark.parametrize("xml", DOCS)
@pytest.mark.parametrize("query", sorted(PROJECTED))
def test_closed_tables_yield_the_kept_subsequence(query, xml):
    tags = XSQEngineFast(query, cache=False).plan.tags
    before = len(tags)
    # Each producer against its own unprojected stream.
    producers = (lambda t: coerce_source(xml).batches(t),
                 lambda t: coerce_source([xml[:7], xml[7:]]).batches(t),
                 lambda t: batch_events(parse_events(xml), t))
    for produce in producers:
        open_tags = TagTable()
        full = named(flatten(produce(open_tags))[0], open_tags)
        tuples, dropped = flatten(produce(tags))
        assert named(tuples, tags) == [event for event in full
                                       if event[1] in tags.ids]
        assert len(tuples) + dropped == len(full)
    assert len(tags) == before


def test_split_parent_text_keeps_the_parents_id():
    tags = TagTable()
    for name in ("r", "a"):
        tags.intern(name)
    tags.close()
    tuples, dropped = flatten(PushBatchParser(tags).batches(
        coerce_source("<r><a>one<n>x<a>in</a>y</n>two</a></r>").chunks(
            64 * 1024)))
    assert named(tuples, tags) == [
        (0, "r", {}, 1), (0, "a", {}, 2), (1, "a", "one", 2),
        (0, "a", {}, 4), (1, "a", "in", 4), (2, "a", None, 4),
        (1, "a", "two", 2), (2, "a", None, 2), (2, "r", None, 1)]
    assert dropped == 4  # <n>, its two text runs, </n>


def test_push_parser_counts_every_event_after_every_feed():
    xml = DOCS[0]
    tags = XSQEngineFast("/r/a[c]/b/text()", cache=False).plan.tags
    projected, full = PushBatchParser(tags), PushEventParser()
    seen = total = 0
    for start in range(0, len(xml), 11):
        chunk = xml[start:start + 11]
        batch = projected.feed(chunk)
        assert isinstance(batch, Batch)
        seen += len(batch) + batch.dropped
        total += len(full.feed(chunk))
        assert seen == total
    batch = projected.finish()
    assert seen + len(batch) + batch.dropped == total + len(full.finish())


# --------------------------------------------------------------------------
# Differential: every mode equals the DOM oracle and the reference stats.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("query", sorted(PROJECTED) + sorted(OPEN))
def test_run_iter_and_event_feeds_match(query):
    compiled = repro.compile(query)
    assert compiled.engine_name == "xsq-fast"
    for xml in DOCS:
        expected, stats = expected_run(query, xml)
        assert stats["events"] == full_event_count(xml)
        assert compiled.run(xml) == expected, (query, xml)
        assert compiled.stats.as_dict() == stats, (query, xml)
        assert list(compiled.iter_results(xml)) \
            == list(reference(query).iter_results(xml)), (query, xml)
        assert compiled.stats.as_dict() == stats, (query, xml)
        # pre-built events go through the same converter
        session = compiled.push()
        out = session.feed_events(list(parse_events(xml))) + session.finish()
        assert out == expected and session.events_fed == stats["events"]
        assert compiled.stats.as_dict() == stats, (query, xml)


@pytest.mark.parametrize("xml", [SPLIT, SMALL])
@pytest.mark.parametrize("query", sorted(PROJECTED) + sorted(OPEN))
def test_push_at_every_offset(query, xml):
    compiled = repro.compile(query)
    expected, stats = expected_run(query, xml)
    for offset in range(len(xml) + 1):
        out, fed = push_split(compiled, xml, offset)
        assert out == expected, (query, offset)
        assert fed == stats["events"]
        assert compiled.stats.as_dict() == stats, (query, offset)


@pytest.mark.parametrize("query", sorted(PROJECTED))
def test_events_fed_is_the_parsed_length_after_every_feed(query):
    xml = DOCS[1]
    session = repro.compile(query).push()
    reference_parser = PushEventParser()
    parsed = 0
    for start in range(0, len(xml), 13):
        chunk = xml[start:start + 13]
        session.feed(chunk)
        parsed += len(reference_parser.feed(chunk))
        assert session.events_fed == parsed
    session.finish()
    assert session.events_fed == parsed + len(reference_parser.finish())


@pytest.mark.parametrize("query", sorted(PROJECTED))
def test_run_bulk_serial(query):
    runs = [expected_run(query, xml) for xml in DOCS]
    bulk = repro.compile(query).run_bulk(DOCS, workers=1)
    assert bulk.results() == [results for results, _ in runs]
    assert bulk.stats.as_dict() == RunStats.totals(
        stats for _, stats in runs).as_dict()


GROUP = sorted(PROJECTED) + ["//b[c]/text()", "//a//c[@k=1]/text()"]


def test_mixed_group_projects_and_matches_single_runs():
    engine = MultiQueryEngine(GROUP)
    tags = engine._fast[0]
    assert tags.closed
    assert engine.member_runtimes[-2:] == ["xsq-f", "xsq-f"]
    before = len(tags)
    for xml in DOCS:
        grouped = engine.run(xml)
        for query, results, stats in zip(GROUP, grouped, engine.last_stats):
            expected, expected_stats = expected_run(query, xml)
            assert results == expected, (query, xml)
            assert stats.as_dict() == expected_stats, (query, xml)
    assert len(tags) == before


def test_greedy_member_keeps_the_group_table_open():
    engine = MultiQueryEngine(GROUP + ["/r/a/b"])
    assert not engine._fast[0].closed
    for xml in DOCS[:3]:
        for query, results in zip(GROUP + ["/r/a/b"], engine.run(xml)):
            assert results == DomEngine(query).run(xml), query


def broker_stream(broker, xml, size):
    handle = broker.open_stream()
    out = []
    for start in range(0, len(xml), size):
        out += handle.feed(xml[start:start + size])
    out += handle.finish()
    return out, handle.events_fed


@pytest.mark.parametrize("size", (5, 64, 4096))
def test_broker_matches_single_runs(size):
    broker = SubscriptionBroker()
    sids = {query: broker.subscribe(query) for query in GROUP}
    for xml in DOCS:
        out, fed = broker_stream(broker, xml, size)
        assert fed == full_event_count(xml)
        _, engine = broker._snapshot_engine()
        assert engine._fast[0].closed
        stats = dict(zip([q.text for q in engine.queries], engine.last_stats))
        for query, sid in sids.items():
            expected, expected_stats = expected_run(query, xml)
            assert [v for s, v in out if s == sid] == expected, query
            assert stats[query].as_dict() == expected_stats, query


# -- schema-compiled plans with eager gates --------------------------------

ORDERED_DTD = """
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

SCHEMA_XML = (
    "<root>"
    "<pub><year>1999</year><publisher>A<![CDATA[&]]></publisher>"
    "<book id='a'><title>t1</title><price>5</price><author>x</author></book>"
    "<book id='b'><title>t2</title><price>6</price><author>y</author></book>"
    "</pub>"
    "<pub><publisher>B &amp; C<!-- c --></publisher>"
    "<book id='c'><title>t3</title><price>7</price><author>z</author></book>"
    "</pub>"
    "<pub><year>2001</year><publisher>C</publisher>"
    "<book id='d'><title>t4</title><price>8</price><author>w</author>"
    "<pub><publisher>inner</publisher>"
    "<book id='e'><title>t5</title><price>9</price><author>v</author></book>"
    "</pub></book>"
    "</pub>"
    "</root>")


@pytest.mark.parametrize("query", ["/root/pub[year]/book/title/text()",
                                   "/root/pub[year]/book[price<8]/@id",
                                   "/root/pub/book[author]/title/text()"])
def test_schema_plans_with_eager_gates(query):
    compiled = repro.compile(query, schema=ORDERED_DTD)
    engine = compiled.engine
    assert engine.plan.tags.closed
    if "[year]" in query:
        assert engine.plan.eager_gate is not None
    expected, stats = expected_run(query, SCHEMA_XML)
    assert compiled.run(SCHEMA_XML) == expected
    assert compiled.stats.events == stats["events"]
    for offset in range(0, len(SCHEMA_XML) + 1, 3):
        out, fed = push_split(compiled, SCHEMA_XML, offset)
        assert out == expected and fed == stats["events"], offset
    bulk = compiled.run_bulk([SCHEMA_XML], workers=1)
    assert bulk.results() == [expected]


# --------------------------------------------------------------------------
# Bounded tables under streams of fresh tag names.
# --------------------------------------------------------------------------

def fresh_tag_doc(prefix, count):
    """``count`` fresh tag names, nested in runs of five around matches,
    with a match at the top level beside each run."""
    parts = ["<r>"]
    for start in range(0, count, 5):
        names = ["%s%d" % (prefix, i) for i in range(start, start + 5)]
        parts.append("<a><b>top%d</b><%s>z</%s></a>"
                     % (start, names[0], names[0]))
        parts.append("".join("<%s>" % name for name in names))
        parts.append("<a k='%d'><b>%d</b><%s0>x</%s0><b>y</b></a>"
                     % (start % 3, start, prefix, prefix))
        parts.append("".join("</%s>" % name for name in reversed(names)))
    parts.append("</r>")
    return "".join(parts)


@pytest.mark.parametrize("query", ["/r/a/b/text()", "//a/b/text()"])
def test_text_query_table_stays_bounded_in_run_and_push(query):
    compiled = repro.compile(query)
    tags = compiled.engine.plan.tags
    before = len(tags)
    xml = fresh_tag_doc("f", 10_000)
    expected = DomEngine(query).run(xml)
    assert expected
    assert compiled.run(xml) == expected
    out, fed = push_split(compiled, xml, len(xml) // 3)
    assert out == expected and fed == full_event_count(xml)
    assert len(tags) == before


def test_broker_without_greedy_members_stays_bounded():
    queries = ("//a/b/text()", "//a[@k=1]//b/text()", "//b/count()")
    broker = SubscriptionBroker()
    sids = [broker.subscribe(query) for query in queries]
    warm = fresh_tag_doc("w", 10)
    broker_stream(broker, warm, 64)
    _, engine = broker._snapshot_engine()
    tags = engine._fast[0]
    assert tags.closed
    before = len(tags)
    docs = [fresh_tag_doc("g%d_" % i, 10_000) for i in range(2)]
    results = {}
    errors = []

    def feed(index):
        try:
            results[index] = broker_stream(broker, docs[index], 4096)[0]
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=feed, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for index, xml in enumerate(docs):
        for sid, query in zip(sids, queries):
            assert [v for s, v in results[index] if s == sid] \
                == DomEngine(query).run(xml), query
    _, same = broker._snapshot_engine()
    assert same is engine
    assert len(tags) == before


def test_broker_with_element_output_member_still_grows():
    broker = SubscriptionBroker()
    broker.subscribe("//a/b/text()")
    sid = broker.subscribe("/r/*/a")
    broker_stream(broker, fresh_tag_doc("w", 10), 64)
    _, engine = broker._snapshot_engine()
    tags = engine._fast[0]
    assert not tags.closed
    before = len(tags)
    xml = fresh_tag_doc("h", 2_000)
    out, _ = broker_stream(broker, xml, 4096)
    assert [v for s, v in out if s == sid] == DomEngine("/r/*/a").run(xml)
    assert len(tags) >= before + 2_000


# --------------------------------------------------------------------------
# What explain() and the profiler report.
# --------------------------------------------------------------------------

def test_explain_reports_kept_tags():
    text = repro.compile("/r/a[c]/b/text()").explain()
    assert "parser projection: keeps 4 tags" in text


def test_explain_reports_element_output():
    text = repro.compile("/r/a/b").explain()
    assert "parser projection: none (element output)" in text


def test_explain_reports_wildcard():
    text = repro.compile("/r/a/*/text()").explain()
    assert "parser projection: none (wildcard)" in text


def test_set_member_notes_and_broker_describe():
    queries = ["/r/a/b/text()", "//r//*/@k", "/r/a"]
    text = repro.compile(queries).explain()
    assert "  parser projection: keeps 3 tags" in text
    assert "  parser projection: none (wildcard)" in text
    assert "  parser projection: none (element output)" in text
    broker = SubscriptionBroker()
    sids = [broker.subscribe(query) for query in queries]
    described = {entry["sub"]: entry["projection"]
                 for entry in broker.describe()}
    assert described == {
        sids[0]: "parser projection: keeps 3 tags",
        sids[1]: "parser projection: none (wildcard)",
        sids[2]: "parser projection: none (element output)"}


def test_profile_counts_parsed_events_and_dropped_ones():
    xml = DOCS[2]
    query = "/r/a[c]/b/text()"
    report = repro.compile(query).profile(xml)
    events = full_event_count(xml)
    assert report.events == events
    assert 0 < report.dropped < events
    assert report.phases["parse"][1] == events
    assert report.phases["automaton"][1] == events - report.dropped
    assert "dropped at the parser: %d" % report.dropped in report.render()
    assert report.as_dict()["dropped"] == report.dropped
    sampled = repro.compile(query).profile(xml, sample_interval=1)
    assert sampled.sampling["sampled_events"] == events
    assert sampled.sampling["scale"] == pytest.approx(1.0)
