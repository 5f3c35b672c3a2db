"""Ablation: schema-aware optimization (the paper's future work).

Measures the three wins of :mod:`repro.xsq.schema_opt` against the
schema-unaware engine on the same data.  Both sides run XSQ-F
(``repro.compile(q, engine="f", schema=DBLP_DTD)`` against
:class:`XSQEngine`), so the schema's win is isolated from the
generated kernel's:

* a closure query on a non-recursive schema runs as a child-axis path
  (closure elimination);
* a statically-empty query costs nothing at all;
* a guaranteed predicate disappears from the HPDT.

The auto rows then compare what ``repro.compile`` actually selects with
and without the DTD: a query must never land on a slower tier because a
schema is attached (a closure the kernel runs keeps its kernel; one it
cannot run becomes a union of its expansion).  The check runs over the
closure queries, the paper's DBLP queries, ``not()``/``or()`` queries
and a seeded sample from the query workload generator.
"""

import random

import pytest

import repro
from repro.bench.figures import DATASET_QUERIES, FIG19_QUERY
from repro.datagen import QueryWorkloadGenerator, TagGraph
from repro.streaming.dtd import parse_dtd
from repro.xsq.engine import XSQEngine

DBLP_DTD = parse_dtd("""
    <!ELEMENT dblp (article | inproceedings)*>
    <!ELEMENT article (author*, title, journal?, volume?, year, pages,
                       url)>
    <!ELEMENT inproceedings (author*, title, booktitle, year, pages,
                             url)>
    <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>
    <!ELEMENT journal (#PCDATA)> <!ELEMENT volume (#PCDATA)>
    <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>
    <!ELEMENT url (#PCDATA)> <!ELEMENT booktitle (#PCDATA)>
""", root="dblp")

CLOSURE_QUERY = "//inproceedings//booktitle/text()"
GUARANTEED_QUERY = "/dblp/article[title]/year/text()"
EMPTY_QUERY = "//article//booktitle/text()"  # schema forbids this path
#: Closures under auto selection: one expansion path, several paths
#: (a kernel closure), several paths with a predicate (no kernel).
AUTO_CLOSURE_QUERIES = (CLOSURE_QUERY, "//author/text()",
                        "//*[author]/year/text()")
#: The paper's DBLP queries (Figures 17 and 19).
PAPER_QUERIES = (DATASET_QUERIES["dblp"], FIG19_QUERY)
#: Child-axis and closure queries with ``not()`` / ``or()`` predicates,
#: which ``auto`` runs on XSQ-NC (or XSQ-F under a closure).
BOOLEAN_QUERIES = (
    "/dblp/article[not(journal)]/title/text()",
    "/dblp/article[journal or volume]/year/text()",
    "/dblp/inproceedings[not(author)]/title/text()",
    "/dblp/inproceedings[booktitle or url]/pages/text()",
    "/dblp/*[not(booktitle)]/author/text()",
    "/dblp/article[not(volume)]/journal",
    "//article[volume or journal]/title/text()",
    "//inproceedings[not(url)]/booktitle/text()",
)
#: Sampled queries: ``QueryWorkloadGenerator`` walks over the corpus's
#: tag graph with predicates, ``*`` and ``//``.
SAMPLED_COUNT = 40
SAMPLE_SEED = 2003
#: Runtime tiers, slowest first.  A statically empty query runs
#: nothing, so ``empty`` ranks above every runtime.
TIERS = ("xsq-f", "xsq-nc", "xsq-fast", "empty")


def sampled_queries(path):
    """:data:`SAMPLED_COUNT` distinct generated queries over the tags of
    the corpus at ``path``; half of them (by the seed) select text."""
    gen = QueryWorkloadGenerator(TagGraph.from_document(path),
                                 seed=SAMPLE_SEED, max_depth=4,
                                 closure_probability=0.3,
                                 wildcard_probability=0.15,
                                 predicate_probability=0.3)
    rng = random.Random(SAMPLE_SEED)
    return [query + "/text()" if rng.random() < 0.5 else query
            for query in gen.workload(SAMPLED_COUNT)]


def schema_aware(query):
    """The schema-aware side: the schema's rewrites and schema-aware
    compilation on XSQ-F, the engine the unaware side runs."""
    compiled = repro.compile(query, engine="f", schema=DBLP_DTD)
    assert compiled.engine_name in ("xsq-f", "empty")
    return compiled


@pytest.mark.parametrize("mode", ("schema-aware", "unaware"))
@pytest.mark.benchmark(group="ablation-schema-closure")
def test_closure_elimination(benchmark, cache, mode):
    path = cache.path("dblp")
    if mode == "schema-aware":
        engine = schema_aware(CLOSURE_QUERY)
        assert not engine.query.has_closure  # rewritten to child axes
    else:
        engine = XSQEngine(CLOSURE_QUERY)
    results = benchmark(engine.run, path)
    assert results


def tier(compiled) -> int:
    """``compiled``'s rank in :data:`TIERS`; a union ranks at its
    slowest branch."""
    if compiled.engine_name == "xsq-union":
        return min(TIERS.index("xsq-fast" if runtime == "kernel"
                               else "xsq-f")
                   for runtime in compiled.engine.member_runtimes)
    return TIERS.index(compiled.engine_name)


@pytest.mark.parametrize("query", AUTO_CLOSURE_QUERIES)
@pytest.mark.parametrize("mode", ("schema-aware", "unaware"))
@pytest.mark.benchmark(group="ablation-schema-auto")
def test_closure_auto(benchmark, cache, mode, query):
    path = cache.path("dblp")
    engine = repro.compile(
        query, schema=DBLP_DTD if mode == "schema-aware" else None)
    results = benchmark(engine.run, path)
    assert results


def test_auto_schema_tier_never_lower(cache):
    """Attaching the DTD never lowers a query's tier nor changes its
    results: the closure queries above, the paper's queries, the
    ``not()``/``or()`` queries and a seeded generated sample."""
    path = cache.path("dblp")
    queries = (AUTO_CLOSURE_QUERIES + PAPER_QUERIES + BOOLEAN_QUERIES
               + tuple(sampled_queries(path)))
    assert len(set(queries)) == len(queries)
    for query in queries:
        aware = repro.compile(query, schema=DBLP_DTD)
        unaware = repro.compile(query)
        assert tier(aware) >= tier(unaware), \
            (query, aware.engine_name, unaware.engine_name)
        assert aware.run(path) == unaware.run(path), query


@pytest.mark.parametrize("mode", ("schema-aware", "unaware"))
@pytest.mark.benchmark(group="ablation-schema-guaranteed-pred")
def test_guaranteed_predicate(benchmark, cache, mode):
    path = cache.path("dblp")
    if mode == "schema-aware":
        engine = schema_aware(GUARANTEED_QUERY)
        assert not engine.query.steps[1].predicates
    else:
        engine = XSQEngine(GUARANTEED_QUERY)
    results = benchmark(engine.run, path)
    assert results


@pytest.mark.parametrize("mode", ("schema-aware", "unaware"))
@pytest.mark.benchmark(group="ablation-schema-empty")
def test_static_emptiness(benchmark, cache, mode):
    path = cache.path("dblp")
    if mode == "schema-aware":
        engine = schema_aware(EMPTY_QUERY)
        assert engine.engine_name == "empty"
    else:
        engine = XSQEngine(EMPTY_QUERY)
    results = benchmark(engine.run, path)
    assert results == []


def test_all_rewrites_preserve_results(cache):
    path = cache.path("dblp")
    for query in (CLOSURE_QUERY, GUARANTEED_QUERY, EMPTY_QUERY):
        assert schema_aware(query).run(path) == \
            XSQEngine(query).run(path), query
