"""Differential oracle sweep for schema-aware compilation (ISSUE 10).

On schema-valid documents — generated from the DTD itself, so validity
is guaranteed by construction — attaching the schema must be
observationally invisible: schema-optimized results equal unoptimized
results equal the DOM baseline, across every predicate category, on
both the pull and push (every-offset event split) paths, with the
buffering-discipline auditor silent throughout.
"""

import pytest

import repro
from repro.datagen.from_dtd import generate_valid_document
from repro.errors import FastPathUnsupportedError
from repro.obs import Observability
from repro.streaming.dtd import parse_dtd
from repro.streaming.source import coerce_source
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import XSQEngineFast
from repro.xsq.nc import XSQEngineNC

from conftest import oracle

# One schema exercising every predicate category: an optional ordered
# witness (k? before n — the eager-resolution shape), optional
# attributes on g and k, a nested path for category 6, and repeatable
# subtrees so closures fan out.
SWEEP_DTD_TEXT = """
<!ELEMENT root (g+)>
<!ELEMENT g (k?, n, sub*)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT n (#PCDATA)>
<!ELEMENT sub (leaf)>
<!ELEMENT leaf (#PCDATA)>
<!ATTLIST g id CDATA #IMPLIED>
<!ATTLIST k a CDATA #IMPLIED>
"""

SWEEP_DTD = parse_dtd(SWEEP_DTD_TEXT, root="root")

# Category 0-6 plus not()/or() compounds and closure variants.
QUERIES = [
    "/root/g/n/text()",            # cat 0: no predicate
    "/root/g[@id]/n/text()",       # cat 1: own attribute
    "/root/g/k[text()]/@a",        # cat 2: own text
    "/root/g[k]/n/text()",         # cat 3: child existence (gated)
    "/root/g[k@a]/n/text()",       # cat 4: child attribute
    "/root/g[sub/leaf]/n/text()",  # cat 6: path predicate
    "/root/g[not(k)]/n/text()",    # negation
    "/root/g[k or @id]/n/text()",  # disjunction
    "//sub/leaf/text()",           # closure (expanded by the schema)
    "//g[k]//leaf/text()",         # closure + gated predicate
]

SEEDS = range(4)


def corpus(seed):
    return generate_valid_document(SWEEP_DTD, seed=seed, max_depth=6)


def cat5_query(xml):
    """Category 5 with a value that actually occurs in the document."""
    values = oracle("/root/g/k/text()", xml)
    value = values[0] if values else "zzz"
    return "/root/g[k='%s']/n/text()" % value


class TestPullDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_categories_all_engines(self, seed):
        xml = corpus(seed)
        for query in QUERIES + [cat5_query(xml)]:
            expected = oracle(query, xml)
            plain = XSQEngine(query, cache=False).run(xml)
            opt = XSQEngine(query, cache=False, schema=SWEEP_DTD).run(xml)
            assert plain == opt == expected, (seed, query)
            if "//" not in query:
                nc_opt = XSQEngineNC(query, cache=False,
                                     schema=SWEEP_DTD).run(xml)
                assert nc_opt == expected, (seed, query)
            try:
                fast = XSQEngineFast(query, cache=False, schema=SWEEP_DTD)
            except FastPathUnsupportedError:
                continue
            assert fast.run(xml) == expected, (seed, query)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_facade_auto_with_schema(self, seed):
        xml = corpus(seed)
        for query in QUERIES:
            compiled = repro.compile(query, schema=SWEEP_DTD_TEXT,
                                     cache=False)
            assert compiled.run(xml) == oracle(query, xml), (seed, query)


class TestPushDifferential:
    """feed_events(prefix) + feed_events(suffix) + finish() must equal
    run() at EVERY event offset, with the schema attached."""

    PUSH_QUERIES = ["/root/g[k]/n/text()", "/root/g[@id]/n/text()",
                    "/root/g[not(k)]/n/text()"]

    @pytest.mark.parametrize("query", PUSH_QUERIES)
    def test_every_offset_split(self, query):
        xml = corpus(0)
        engine = XSQEngine(query, cache=False, schema=SWEEP_DTD)
        expected = engine.run(xml)
        assert expected == oracle(query, xml)
        events = list(coerce_source(xml).events())
        for split in range(len(events) + 1):
            handle = engine.push()
            got = list(handle.feed_events(events[:split]))
            got += handle.feed_events(events[split:])
            got += handle.finish()
            assert got == expected, (query, split)


class TestAuditorClean:
    """The paper's buffering discipline holds with eager falsification
    active: no double-clears, no leaks, no late uploads."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_schema_on_runs_stay_clean(self, seed):
        xml = corpus(seed)
        for query in QUERIES + [cat5_query(xml)]:
            for cls in (XSQEngine, XSQEngineNC):
                if cls is XSQEngineNC and "//" in query:
                    continue
                obs = Observability(spans=False, events=False,
                                    accounting=True, audit=True)
                engine = cls(query, obs=obs, cache=False, schema=SWEEP_DTD)
                engine.run(xml)
                assert obs.auditor.ok, (seed, query, cls.__name__,
                                        obs.auditor.report())
                assert obs.audit_violations == []
