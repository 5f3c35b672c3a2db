"""Ablation: the cost of each predicate category's machinery.

Section 3.2 classifies predicates into five categories by *when* they
can be decided; the extensions add path predicates (6), disjunctions,
and negations.  This bench runs structurally identical queries — same
path, same ~50% selectivity, one predicate drawn from each category —
over one dataset, isolating the per-category runtime cost:

* category 1 decides at the begin event (no NA state, no buffering);
* categories 2-5 register deciding-event watchers and buffer;
* category 6 additionally runs a path tracker per activation;
* not() shifts confirmation to the end event (maximum buffering).
"""

import pytest

from repro.xsq.engine import XSQEngine
from repro.xsq.nc import XSQEngineNC

QUERIES = {
    "cat0-none": "/root/g/n/text()",
    "cat1-attr": "/root/g[@id]/n/text()",
    "cat2-text": "/root/g[text()]/n/text()",
    "cat3-child": "/root/g[flag]/n/text()",
    "cat4-child-attr": "/root/g[k@a=1]/n/text()",
    "cat5-child-text": "/root/g[k=5]/n/text()",
    "cat6-path": "/root/g[sub/leaf=5]/n/text()",
    "or": "/root/g[k=5 or zzz]/n/text()",
    "not": "/root/g[not(k=7)]/n/text()",
}

#: Queries whose predicates select the 50% of flagged records.
SELECTIVE = [name for name in QUERIES if name != "cat0-none"]


@pytest.fixture(scope="module")
def probe_path(cache):
    return cache.path("predicate_probe")


@pytest.mark.parametrize("case", sorted(QUERIES))
@pytest.mark.benchmark(group="predicate-categories-xsqf")
def test_category_cost_xsqf(benchmark, probe_path, case):
    engine = XSQEngine(QUERIES[case])
    results = benchmark(engine.run, probe_path)
    assert results


@pytest.mark.parametrize("case", sorted(QUERIES))
@pytest.mark.benchmark(group="predicate-categories-xsqnc")
def test_category_cost_xsqnc(benchmark, probe_path, case):
    engine = XSQEngineNC(QUERIES[case])
    results = benchmark(engine.run, probe_path)
    assert results


def test_all_selective_queries_agree(probe_path):
    """Every selective predicate picks exactly the flagged records."""
    expected = XSQEngine(QUERIES["cat1-attr"]).run(probe_path)
    assert expected
    for name in SELECTIVE:
        assert XSQEngine(QUERIES[name]).run(probe_path) == expected, name
        assert XSQEngineNC(QUERIES[name]).run(probe_path) == expected, name


def test_category1_buffers_nothing(probe_path):
    engine = XSQEngine(QUERIES["cat1-attr"])
    engine.run(probe_path)
    assert engine.last_stats.peak_buffered_items <= 1


def test_not_buffers_until_end(probe_path):
    engine = XSQEngine(QUERIES["not"])
    engine.run(probe_path)
    # Every candidate waits for its </g> before not() confirms.
    assert engine.last_stats.peak_buffered_items >= 1
    assert engine.last_stats.enqueued == (engine.last_stats.emitted
                                          + engine.last_stats.cleared)
