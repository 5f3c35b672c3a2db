"""Property-based testing of the schema pipeline with *random* DTDs.

Random layered DTDs are generated, random documents valid against them
are sampled, and random queries derived from those documents must
evaluate identically under the schema-aware plan, the plain engine,
and the DOM oracle.  The validator must accept every generated
document.
"""

from hypothesis import given, settings, strategies as st

import repro
from repro.baselines.dom import build_dom, evaluate
from repro.datagen.from_dtd import DtdDocumentGenerator
from repro.datagen.queries import QueryWorkloadGenerator, TagGraph
from repro.streaming.dtd import parse_dtd, validate
from repro.streaming.sax_source import parse_events
from repro.xsq.engine import XSQEngine
from repro.xsq.schema_opt import optimize

_TAG_POOL = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
_SUFFIXES = ("", "?", "*", "+")


@st.composite
def layered_dtds(draw):
    """A random non-recursive DTD: tags arranged in strict layers."""
    n_layers = draw(st.integers(2, 3))
    layers = []
    used = 0
    for _ in range(n_layers):
        width = draw(st.integers(1, 2))
        layers.append(_TAG_POOL[used:used + width])
        used += width
    declarations = []
    for index, layer in enumerate(layers):
        children = layers[index + 1] if index + 1 < len(layers) else ()
        for tag in layer:
            if not children:
                declarations.append("<!ELEMENT %s (#PCDATA)>" % tag)
                continue
            particles = []
            for child in children:
                if draw(st.booleans()):
                    particles.append(child + draw(
                        st.sampled_from(_SUFFIXES)))
            if not particles:
                particles = [children[0] + "*"]
            declarations.append("<!ELEMENT %s (%s)>"
                                % (tag, ", ".join(particles)))
            if draw(st.booleans()):
                declarations.append(
                    "<!ATTLIST %s id CDATA %s>"
                    % (tag, draw(st.sampled_from(("#REQUIRED",
                                                  "#IMPLIED")))))
    root = layers[0][0]
    return parse_dtd("\n".join(declarations), root=root)


@settings(max_examples=40, deadline=None)
@given(layered_dtds(), st.integers(0, 10_000))
def test_generated_documents_always_validate(dtd, seed):
    xml = DtdDocumentGenerator(dtd, seed=seed, max_depth=5).document()
    assert validate(dtd, parse_events(xml)) > 0


@settings(max_examples=30, deadline=None)
@given(layered_dtds(), st.integers(0, 10_000))
def test_schema_aware_differential_on_random_schemas(dtd, seed):
    xml = DtdDocumentGenerator(dtd, seed=seed, max_depth=5).document()
    graph = TagGraph.from_document(xml)
    generator = QueryWorkloadGenerator(graph, seed=seed,
                                       closure_probability=0.4,
                                       predicate_probability=0.3)
    for _ in range(4):
        query = generator.query() + "/text()"
        expected = evaluate(build_dom(xml), query)
        assert XSQEngine(query).run(xml) == expected, query
        assert repro.compile(query, schema=dtd).run(xml) == expected, query


@settings(max_examples=30, deadline=None)
@given(layered_dtds())
def test_layered_dtds_are_not_recursive(dtd):
    assert not dtd.is_recursive()
    # Closure elimination therefore always applies to closure queries
    # over declared tags.
    some_tag = sorted(dtd.elements)[0]
    plan = optimize(dtd, "//%s" % some_tag)
    assert plan.empty or plan.closure_free
