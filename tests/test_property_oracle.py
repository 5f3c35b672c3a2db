"""Property-based differential testing.

Random documents (including recursive ones, which the paper stresses)
and random queries from the full supported grammar are evaluated by
every applicable engine; all must agree with the DOM oracle.  This is
the strongest correctness evidence in the suite: the streaming engines
share no evaluation code with the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines.dom import build_dom, evaluate
from repro.baselines.fulltext import FullTextEngine
from repro.baselines.xmltk import XmltkEngine
from repro.streaming.sax_source import parse_events
from repro.streaming.textparser import tokenize_xml
from repro.xsq.engine import XSQEngine
from repro.xsq.nc import XSQEngineNC

TAGS = ("a", "b", "c", "d")
ATTRS = ("id", "x")


# --------------------------------------------------------------------------
# Document strategy: recursive trees over a tiny alphabet, so that random
# queries actually hit structure (and tags repeat along paths, which is
# what makes closures hard).
# --------------------------------------------------------------------------

@st.composite
def elements(draw, depth):
    tag = draw(st.sampled_from(TAGS))
    attrs = draw(st.dictionaries(st.sampled_from(ATTRS),
                                 st.integers(0, 3).map(str), max_size=2))
    children = []
    if depth > 0:
        children = draw(st.lists(elements(depth=depth - 1), max_size=3))
    texts = draw(st.lists(st.integers(0, 5).map(str), max_size=2))
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


documents = elements(depth=4).map(render)


# --------------------------------------------------------------------------
# Query strategy over the full grammar of Figure 3.
# --------------------------------------------------------------------------

_ops = st.sampled_from([">", ">=", "=", "<", "<=", "!="])
_consts = st.integers(0, 4).map(str)


@st.composite
def predicates(draw):
    category = draw(st.integers(1, 8))
    if category == 8:
        # not() negation (extension) of a simple inner predicate.
        kind = draw(st.integers(0, 3))
        if kind == 0:
            inner = "@%s" % draw(st.sampled_from(ATTRS))
        elif kind == 1:
            inner = draw(st.sampled_from(TAGS))
        elif kind == 2:
            inner = "%s%s%s" % (draw(st.sampled_from(TAGS)), draw(_ops),
                                draw(_consts))
        else:
            inner = "%s/%s" % (draw(st.sampled_from(TAGS)),
                               draw(st.sampled_from(TAGS)))
        return "[not(%s)]" % inner
    if category == 6:
        # Path predicates (extension): two-hop child paths.
        first = draw(st.sampled_from(TAGS + ("*",)))
        second = draw(st.sampled_from(TAGS + ("*",)))
        form = draw(st.integers(0, 2))
        if form == 0:
            return "[%s/%s]" % (first, second)
        if form == 1:
            return "[%s/%s%s%s]" % (first, second, draw(_ops),
                                    draw(_consts))
        return "[%s/%s@%s]" % (first, second, draw(st.sampled_from(ATTRS)))
    if category == 7:
        # Or-disjunctions (extension) of two simple branches.
        left = draw(st.sampled_from(TAGS))
        right_kind = draw(st.integers(0, 2))
        if right_kind == 0:
            right = "@%s" % draw(st.sampled_from(ATTRS))
        elif right_kind == 1:
            right = "%s%s%s" % (draw(st.sampled_from(TAGS)), draw(_ops),
                                draw(_consts))
        else:
            right = draw(st.sampled_from(TAGS))
        return "[%s or %s]" % (left, right)
    if category == 1:
        attr = draw(st.sampled_from(ATTRS))
        if draw(st.booleans()):
            return "[@%s]" % attr
        return "[@%s%s%s]" % (attr, draw(_ops), draw(_consts))
    if category == 2:
        if draw(st.booleans()):
            return "[text()]"
        return "[text()%s%s]" % (draw(_ops), draw(_consts))
    child = draw(st.sampled_from(TAGS + ("*",)))
    if category == 3:
        return "[%s]" % child
    if category == 4:
        attr = draw(st.sampled_from(ATTRS))
        if draw(st.booleans()):
            return "[%s@%s]" % (child, attr)
        return "[%s@%s%s%s]" % (child, attr, draw(_ops), draw(_consts))
    return "[%s%s%s]" % (child, draw(_ops), draw(_consts))


@st.composite
def queries(draw, with_predicates=True, outputs=("", "/text()", "/@id",
                                                 "/count()", "/sum()")):
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        axis = draw(st.sampled_from(["/", "//"]))
        tag = draw(st.sampled_from(TAGS + ("*",)))
        pred = ""
        if with_predicates and draw(st.integers(0, 2)) == 0:
            pred = draw(predicates())
        steps.append("%s%s%s" % (axis, tag, pred))
    return "".join(steps) + draw(st.sampled_from(list(outputs)))


# --------------------------------------------------------------------------
# The differential properties.
# --------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(documents, queries())
def test_xsq_f_matches_oracle(xml, query):
    expected = evaluate(build_dom(xml), query)
    assert XSQEngine(query).run(xml) == expected


@settings(max_examples=200, deadline=None)
@given(documents, queries())
def test_xsq_nc_matches_oracle_on_closure_free(xml, query):
    if "//" in query:
        return
    expected = evaluate(build_dom(xml), query)
    assert XSQEngineNC(query).run(xml) == expected


@settings(max_examples=150, deadline=None)
@given(documents, queries(with_predicates=False,
                          outputs=("", "/text()", "/@id")))
def test_xmltk_matches_oracle_on_paths(xml, query):
    expected = evaluate(build_dom(xml), query)
    assert XmltkEngine(query).run(xml) == expected


@settings(max_examples=100, deadline=None)
@given(documents, queries())
def test_fulltext_matches_oracle(xml, query):
    expected = evaluate(build_dom(xml), query)
    assert FullTextEngine(query).run(xml) == expected


@settings(max_examples=150, deadline=None)
@given(documents)
def test_parsers_agree(xml):
    assert list(tokenize_xml(xml)) == list(parse_events(xml))


@settings(max_examples=100, deadline=None)
@given(documents, queries())
def test_streaming_iteration_equals_batch(xml, query):
    engine = XSQEngine(query)
    batch = engine.run(xml)
    streamed = list(engine.iter_results(xml))
    if "count()" in query or "sum()" in query:
        # Streaming mode yields intermediate values; the last one is
        # the final aggregate.
        assert streamed[-1:] == batch
    else:
        assert streamed == batch


@settings(max_examples=100, deadline=None)
@given(documents, queries())
def test_no_duplicate_emission_vs_set_semantics(xml, query):
    # Element output: results must be exactly the distinct matching
    # elements (document order); re-running never changes the answer.
    engine = XSQEngine(query)
    first = engine.run(xml)
    second = engine.run(xml)
    assert first == second


@settings(max_examples=100, deadline=None)
@given(documents)
def test_buffer_always_drains(xml):
    engine = XSQEngine("//a[b]//c/text()")
    engine.run(xml)
    stats = engine.last_stats
    assert stats.enqueued == stats.emitted + stats.cleared


@settings(max_examples=60, deadline=None)
@given(documents, st.lists(queries(), min_size=1, max_size=4))
def test_multiquery_equals_individual_runs(xml, query_list):
    from repro.xsq.multiquery import MultiQueryEngine
    grouped = MultiQueryEngine(query_list).run(xml)
    individual = [XSQEngine(query).run(xml) for query in query_list]
    assert grouped == individual


def node_set_union(xml, query_list):
    """The DOM oracle's ``|``: one value per distinct (node, output)
    pair, however many branches select it."""
    from repro.baselines.dom import match_elements
    from repro.xpath.ast import AttrOutput, TextOutput
    from repro.xpath.parser import parse_query
    document = build_dom(xml)
    values = {}
    for text in query_list:
        query = parse_query(text)
        output = query.output
        for element in match_elements(document, query):
            if isinstance(output, TextOutput):
                for chunk, position in zip(
                        element.texts, document.text_positions(element)):
                    values[(position, output)] = chunk
            elif isinstance(output, AttrOutput):
                if output.attr in element.attrs:
                    values[(element.position, output)] = \
                        element.attrs[output.attr]
            else:
                values[(element.position, output)] = element.serialize()
    return list(values.values())


@settings(max_examples=60, deadline=None)
@given(documents, st.lists(queries(outputs=("/text()", "/@id", "")),
                           min_size=2, max_size=3))
def test_multiquery_merge_is_ordered_union(xml, query_list):
    from repro.api import UnionEngine
    merged = UnionEngine(query_list).run(xml)
    branches = set()
    for query in query_list:
        branches.update(XSQEngine(query).run(xml))
    # The node-set union: every branch's values, a node selected by
    # several branches with the same output once.
    assert set(merged) == branches
    assert sorted(merged) == sorted(node_set_union(xml, query_list))


@settings(max_examples=60, deadline=None)
@given(documents, queries())
def test_both_parsers_feed_engine_identically(xml, query):
    engine = XSQEngine(query)
    via_sax = engine.run(parse_events(xml))
    via_text = engine.run(tokenize_xml(xml))
    assert via_sax == via_text
