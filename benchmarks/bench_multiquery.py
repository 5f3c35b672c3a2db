#!/usr/bin/env python
"""Shared-dispatch multi-query benchmark (standalone, no pytest).

Measures, for N registered queries over one generated DBLP-like
document, the wall-clock throughput of three execution strategies:

* ``independent`` — N separate :class:`XSQEngine` runs, each parsing
  the stream itself (the no-sharing baseline);
* ``dense``       — one parse, every event fed to N XSQ-F
  :class:`MatcherRuntime` instances (the pre-index grouped engine,
  kept here as :func:`dense_run`, the baseline the index must beat);
* ``shared``      — :class:`MultiQueryEngine` with the tag-keyed
  dispatch index routing each event only to the queries that can
  react to it;
* ``push``        — the same shared engine's ordered ``push()``
  session fed the document in 4 KB chunks, its ``(query_index,
  value)`` pairs in stream order across queries (recorded, not gated;
  ``push_vs_shared`` is its time over ``shared``'s).

Each point also records ``union_compile_s``: a cold ``repro.compile``
(``cache=False``) of the N-branch ``q1 | ... | qN`` query, which lowers
every branch to XSQ-F once and generates no kernel (a single query at
N=1; recorded, not gated).

Outputs one JSON artifact (``BENCH_multiquery.json``) suitable for CI
archiving, and with ``--check`` exits non-zero unless, at the largest
N, shared dispatch is (a) at least as fast as the dense loop and
(b) at least ``--speedup-floor`` times faster than independent runs —
the regression gate for the shared index.

Usage::

    python benchmarks/bench_multiquery.py                # full run
    python benchmarks/bench_multiquery.py --quick --check  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import repro
from repro.api import PushSession
from repro.datagen.dblp import generate_dblp
from repro.datagen.queries import TagGraph, QueryWorkloadGenerator
from repro.streaming import coerce_source
from repro.streaming.events import BEGIN, END, BeginEvent, EndEvent, TextEvent
from repro.xsq.compile_cache import compile_hpdt
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import TagTable
from repro.xsq.matcher import MatcherRuntime
from repro.xsq.multiquery import MultiQueryEngine


def build_workload(sample: str, count: int, seed: int = 97) -> List[str]:
    """``count`` text queries over the sample's tag graph.

    Uniqueness is best-effort: the DBLP tag graph is small, so large
    workloads repeat paths — which is exactly the dissemination-service
    shape (many subscribers, few distinct shapes).
    """
    graph = TagGraph.from_document(sample)
    generator = QueryWorkloadGenerator(
        graph, seed=seed, max_depth=4, closure_probability=0.15,
        wildcard_probability=0.0, predicate_probability=0.3)
    return [q + "/text()" for q in generator.workload(count, unique=False)]


def timed(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time for ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


PUSH_CHUNK = 4096


def dense_run(hpdts, xml: str) -> List[List[str]]:
    """The dense loop: one parse (the group's batch parser, over an
    open tag table), every event fed to every member's XSQ-F matcher."""
    sinks: List[List[str]] = [[] for _ in hpdts]
    runtimes = [MatcherRuntime(hpdt, sink) for hpdt, sink in zip(hpdts, sinks)]
    begins = [runtime.on_begin for runtime in runtimes]
    texts = [runtime.on_text for runtime in runtimes]
    ends = [runtime.on_end for runtime in runtimes]
    tags = TagTable()
    names = tags.names
    for batch in coerce_source(xml).batches(tags):
        for kind, tag_id, payload, depth in batch:
            if kind == BEGIN:
                event = BeginEvent(names[tag_id], payload, depth)
                handlers = begins
            elif kind == END:
                event = EndEvent(names[tag_id], depth)
                handlers = ends
            else:
                event = TextEvent(names[tag_id], payload, depth)
                handlers = texts
            for handler in handlers:
                handler(event)
    for runtime in runtimes:
        runtime.finish()
    return sinks


def pushed(engine: MultiQueryEngine, chunks: List[str]) -> list:
    """One ordered push session over ``chunks``: every pair."""
    session = PushSession(engine.push())
    pairs = []
    for chunk in chunks:
        pairs += session.feed(chunk)
    return pairs + session.finish()


def run_point(xml: str, queries: List[str], repeats: int) -> Dict[str, float]:
    shared = MultiQueryEngine(queries, cache=False)
    hpdts = [compile_hpdt(query, cache=False) for query in queries]
    independents = [XSQEngine(query, cache=False) for query in queries]
    chunks = [xml[i:i + PUSH_CHUNK] for i in range(0, len(xml), PUSH_CHUNK)]

    # Sanity: the strategies must agree before we time them.
    expected = [engine.run(xml) for engine in independents]
    pairs = pushed(shared, chunks)
    if (shared.run(xml) != expected or dense_run(hpdts, xml) != expected
            or [[v for i, v in pairs if i == n] for n in range(len(queries))]
            != expected):
        raise AssertionError(
            "strategies disagree for N=%d: shared dispatch is broken"
            % len(queries))

    point = {
        "n_queries": len(queries),
        "shared_s": timed(lambda: shared.run(xml), repeats),
        "dense_s": timed(lambda: dense_run(hpdts, xml), repeats),
        "independent_s": timed(
            lambda: [engine.run(xml) for engine in independents], repeats),
        "push_s": timed(lambda: pushed(shared, chunks), repeats),
        "union_compile_s": timed(
            lambda: repro.compile(" | ".join(queries), cache=False),
            repeats),
    }
    point["push_vs_shared"] = point["push_s"] / point["shared_s"]
    point["shared_vs_dense"] = point["dense_s"] / point["shared_s"]
    point["shared_vs_independent"] = (point["independent_s"]
                                      / point["shared_s"])
    index = shared.index
    point["index"] = index.stats()
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1,10,100",
                        help="comma-separated N values (default 1,10,100)")
    parser.add_argument("--target-bytes", type=int, default=400_000,
                        help="generated document size (default 400000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="small document + 1 repeat (CI smoke)")
    parser.add_argument("--out", default="BENCH_multiquery.json",
                        help="JSON artifact path (default %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless shared dispatch beats the "
                             "gates at the largest N")
    parser.add_argument("--speedup-floor", type=float, default=2.0,
                        help="required shared-vs-independent speedup at "
                             "the largest N (default 2.0)")
    args = parser.parse_args(argv)

    if args.quick:
        args.target_bytes = min(args.target_bytes, 120_000)
        args.repeats = 1
    sizes = sorted({int(size) for size in args.sizes.split(",")})

    xml = generate_dblp(target_bytes=args.target_bytes, seed=11)
    workload = build_workload(xml, max(sizes))

    points = []
    for size in sizes:
        point = run_point(xml, workload[:size], args.repeats)
        points.append(point)
        print("N=%-4d shared=%.3fs dense=%.3fs independent=%.3fs "
              "push=%.3fs union_compile=%.4fs (vs dense %.2fx, "
              "vs independent %.2fx, push/shared %.2fx)"
              % (size, point["shared_s"], point["dense_s"],
                 point["independent_s"], point["push_s"],
                 point["union_compile_s"], point["shared_vs_dense"],
                 point["shared_vs_independent"], point["push_vs_shared"]))

    artifact = {
        "bench": "multiquery-shared-dispatch",
        "target_bytes": args.target_bytes,
        "repeats": args.repeats,
        "points": points,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.out)

    if args.check:
        top = points[-1]
        failures = []
        if top["shared_vs_dense"] < 1.0:
            failures.append(
                "shared dispatch slower than the dense loop at N=%d "
                "(%.2fx)" % (top["n_queries"], top["shared_vs_dense"]))
        if top["shared_vs_independent"] < args.speedup_floor:
            failures.append(
                "shared dispatch only %.2fx faster than independent "
                "runs at N=%d (floor %.1fx)"
                % (top["shared_vs_independent"], top["n_queries"],
                   args.speedup_floor))
        if failures:
            for failure in failures:
                print("CHECK FAILED: %s" % failure, file=sys.stderr)
            return 1
        print("checks passed: %.2fx vs dense, %.2fx vs independent at N=%d"
              % (top["shared_vs_dense"], top["shared_vs_independent"],
                 top["n_queries"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
