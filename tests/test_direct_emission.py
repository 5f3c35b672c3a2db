"""Determined results skip the buffer queue on the generated kernels.

A kernel result site whose value is already determined, with nothing
queued ahead of it, sends the value straight out (``self.emit``, or the
aggregate's ``update``) and counts it in ``runtime.results``;
``FastRuntime.finish`` adds that count to the queue's enqueued, flushed
and emitted totals and raises its peak to at least 1, which is what
XSQ-NC and XSQ-F report for an item enqueued and emitted at once.

This suite checks the shape of the generated source (no
``new_item(`` where nothing can pend, and only behind a pending or
queued-ahead test elsewhere) and that every ``RunStats`` counter still
equals XSQ-NC's and XSQ-F's: on ``run()``, on ``push()`` split at every
offset, inside a query group and inside a union.
"""

import pytest

from repro.api import PushSession, UnionEngine
from repro.streaming.dtd import parse_dtd
from repro.xsq.codegen import kernel_source
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import XSQEngineFast
from repro.xsq.multiquery import MultiQueryEngine
from repro.xsq.nc import XSQEngineNC

#: Every predicate resolves at its element's begin event (or there are
#: none): no result can pend.
BEGIN_RESOLVED = (
    "/a/b/d/text()",
    "/a/b[@x]/d/text()",
    "/a/*[@x='2']/d/text()",
    "/a/b/@y",
    "/a/b[@x]/@y",
    "/a/b/count()",
    "/a/b/d/sum()",
)

#: Plans with instances that can pend at a result site.
GENERAL = (
    "/a/b[c]/d/text()",
    "/a[e]/b[c]/d/text()",
    "/a/b[c]/@y",
    "/a/b[c]/count()",
    "/a/b[c]/d/sum()",
    "/a/b[d>3]/d/text()",
    "/a/b[text()]/d/text()",
)

#: ``c`` before ``d``, after ``d``, between two ``d``s, and never: items
#: that pend then resolve, pend then clear, and are determined on
#: arrival, with and without a pending item ahead of them.
XML = ("<a><e/>"
       "<b x='1' y='p'><d>1</d><c/><d>2</d></b>"
       "<b x='2' y='q'><c/><d>3</d></b>"
       "<b y='r'>t<d>4</d></b>"
       "<b x='2'><d>5</d><d>6</d><c/></b>"
       "<f><d>7</d></f>"
       "</a>")


def source_lines(query):
    return kernel_source(XSQEngineFast(query).plan).splitlines()


def indent(line):
    return len(line) - len(line.lstrip())


def header(lines, index):
    """The index of the branch header ``lines[index]`` sits under."""
    for j in range(index - 1, -1, -1):
        if lines[j].strip() and indent(lines[j]) < indent(lines[index]):
            return j
    raise AssertionError("no enclosing line")


def previous_sibling(lines, index):
    """The index of the header before ``lines[index]`` at its indent."""
    for j in range(index - 1, -1, -1):
        if indent(lines[j]) == indent(lines[index]):
            return j
    raise AssertionError("no sibling")


class TestKernelShape:
    @pytest.mark.parametrize("query", BEGIN_RESOLVED)
    def test_begin_resolved_kernel_never_enqueues(self, query):
        source = "\n".join(source_lines(query))
        assert "new_item(" not in source and "mark_output" not in source
        assert "queue" not in source
        assert "emit(" in source or "update(" in source
        assert "nres += 1" in source

    def test_element_output_keeps_the_queue(self):
        # Its value completes only at the element's end tag.
        source = "\n".join(source_lines("/a/b/d"))
        assert "new_item(None" in source and "emit(" not in source

    @pytest.mark.parametrize("query", GENERAL)
    def test_general_kernel_enqueues_only_behind_a_test(self, query):
        lines = source_lines(query)
        sites = [i for i, line in enumerate(lines) if "new_item(" in line]
        direct = [i for i, line in enumerate(lines)
                  if line.strip().startswith(("emit(", "update("))]
        assert sites and direct
        for i in direct:
            assert lines[header(lines, i)].strip() \
                == "elif queue._head is None:"
        for i in sites:
            opened = lines[header(lines, i)].strip()
            if opened == "else:":
                before = lines[previous_sibling(lines, header(lines, i))]
                assert before.strip() == "elif queue._head is None:"
            else:
                assert opened in ("if i_p.status is None:",
                                  "if pending_i:"), opened


def reference_stats(query, xml):
    """XSQ-NC's results and stats, checked equal to XSQ-F's."""
    nc, f = XSQEngineNC(query), XSQEngine(query)
    results = nc.run(xml)
    assert f.run(xml) == results, query
    assert f.stats.as_dict() == nc.stats.as_dict(), query
    return results, nc.stats.as_dict()


def pushed(engine, xml, offset):
    session = PushSession(engine.push())
    out = session.feed(xml[:offset]) + session.feed(xml[offset:])
    return out + session.finish()


@pytest.mark.parametrize("query", BEGIN_RESOLVED + GENERAL)
def test_stats_equal_interpreted_on_run_and_every_push_split(query):
    results, stats = reference_stats(query, XML)
    engine = XSQEngineFast(query)
    assert engine.run(XML) == results
    assert engine.stats.as_dict() == stats
    for offset in range(len(XML) + 1):
        assert pushed(engine, XML, offset) == results, offset
        assert engine.stats.as_dict() == stats, offset


def test_pending_then_resolved_items_count_like_the_queue():
    # d1 pends until c (flushed), d2 and d3 are determined on arrival
    # with an empty queue, d4 pends and is cleared, d5/d6 pend until c.
    query = "/a/b[c]/d/text()"
    results, stats = reference_stats(query, XML)
    assert results == ["1", "2", "3", "5", "6"]
    assert stats["enqueued"] == 6 and stats["cleared"] == 1
    assert stats["flushed"] == stats["emitted"] == 5
    assert stats["peak_buffered_items"] == 2
    engine = XSQEngineFast(query)
    assert engine.run(XML) == results
    assert engine.stats.as_dict() == stats


def test_stats_equal_interpreted_inside_a_group():
    queries = BEGIN_RESOLVED + GENERAL
    expected = [reference_stats(query, XML) for query in queries]
    engine = MultiQueryEngine(list(queries))
    assert engine.member_runtimes == ["kernel"] * len(queries)
    assert engine.run(XML) == [results for results, _ in expected]
    assert [run.as_dict() for run in engine.last_stats] \
        == [stats for _, stats in expected]
    for offset in range(0, len(XML) + 1, 7):
        pairs = pushed(engine, XML, offset)
        grouped = [[] for _ in queries]
        for index, value in pairs:
            grouped[index].append(value)
        assert grouped == [results for results, _ in expected], offset
        assert [run.as_dict() for run in engine.last_stats] \
            == [stats for _, stats in expected], offset


def test_union_members_count_and_order_like_xsq_f():
    # A closure-stack kernel and a general kernel in one union: both
    # draw the union's seqs for the results they send unqueued.
    queries = ["//d/text()", "/a/b[c]/d/text()", "/a/f/d/text()"]
    engine = UnionEngine(queries)
    assert engine.member_runtimes == ["kernel"] * 3
    assert engine.run(XML) == ["1", "2", "3", "4", "5", "6", "7"]
    stats = [XSQEngine(query) for query in queries]
    for member in stats:
        member.run(XML)
    assert [run.as_dict() for run in engine.last_stats] \
        == [member.stats.as_dict() for member in stats]


SCHEMA = parse_dtd("""
    <!ELEMENT catalog (pub+)>
    <!ELEMENT pub (year?, publisher, book*)>
    <!ELEMENT book (title, price)>
    <!ELEMENT year (#PCDATA)> <!ELEMENT publisher (#PCDATA)>
    <!ELEMENT title (#PCDATA)> <!ELEMENT price (#PCDATA)>
""", root="catalog")
SCHEMA_XML = ("<catalog>"
              "<pub><year>1</year><publisher>A</publisher>"
              "<book><title>t1</title><price>5</price></book>"
              "<book><title>t2</title><price>6</price></book></pub>"
              "<pub><publisher>B</publisher>"
              "<book><title>t3</title><price>7</price></book></pub>"
              "</catalog>")


@pytest.mark.parametrize("query", ["/catalog/pub[year]/book/title/text()",
                                   "/catalog/pub[year]/book/count()"])
def test_schema_no_buffer_plan(query):
    engine = XSQEngineFast(query, schema=SCHEMA)
    assert engine.plan.schema_no_buffer
    source = kernel_source(engine.plan)
    assert "new_item(" not in source
    nc = XSQEngineNC(query, schema=SCHEMA)
    f = XSQEngine(query, schema=SCHEMA)
    results = nc.run(SCHEMA_XML)
    assert f.run(SCHEMA_XML) == results
    assert engine.run(SCHEMA_XML) == results
    assert engine.stats.as_dict() == nc.stats.as_dict() \
        == f.stats.as_dict()
    for offset in range(len(SCHEMA_XML) + 1):
        assert pushed(engine, SCHEMA_XML, offset) == results, offset
        assert engine.stats.as_dict() == nc.stats.as_dict(), offset
