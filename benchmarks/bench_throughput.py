#!/usr/bin/env python
"""Engine throughput on the paper's evaluation corpora (Figures 15/17).

Measures MB/s over the four Figure 15 datasets (SHAKE, NASA, DBLP, PSD)
with each dataset's Figure 16/17-style query — plus two element-output
workloads, two closure workloads and a wildcard text workload (whose
tag table stays open, so the parser cannot project the stream) — for
the three single-query runtimes: the
fast tier's generated kernel (the ``codegen`` column), XSQ-NC and
XSQ-F, plus the PureParser parse-only ceiling the paper normalizes
against.  XSQ-NC runs no closure queries, so the closure workloads
have no ``nc`` cell and their speedup is over XSQ-F.  All
engines run over the same in-memory document; each cell takes the best
of ``--repeats`` runs to damp scheduler noise.

Each workload also records ``selection``: the tier ``engine="auto"``
actually picks (codegen/nc/f), the fallback slug when the fast
path is rejected, and the kernel note — so the artifact shows *which*
engine users get, not just how fast each one could be.
``python -m repro.bench diff`` surfaces a workload dropping off the
fast tier as a regression.

Writes a schema-versioned ``BENCH_throughput.json`` at the repo root so
the throughput trajectory accumulates run over run, and with ``--check``
gates CI two ways:

* correctness: every engine must produce the same result count per
  workload;
* regression: fast-path MB/s for any workload present in the committed
  baseline must not drop by more than ``--regress-floor`` (default
  20%), and the fast path must hold a >=``--min-speedup`` edge (default
  2.0x) over the faster interpreted engine.

Usage::

    python benchmarks/bench_throughput.py                   # full run
    python benchmarks/bench_throughput.py --quick --check   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.baselines.pureparser import PureParser
from repro.datagen import (
    generate_dblp,
    generate_nasa,
    generate_psd,
    generate_shake,
)
from repro.errors import ClosureNotSupportedError
from repro.xsq.engine import XSQEngine
from repro.xsq.fastpath import XSQEngineFast
from repro.xsq.nc import XSQEngineNC

SCHEMA_VERSION = 1

#: The Figure 15 corpora with each one's evaluation query (the SHAKE
#: query is Figure 16's workhorse; the rest are the Figure 17 family).
WORKLOADS = [
    ("shake", "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()"),
    ("nasa", "/datasets/dataset/reference/source/other/name/text()"),
    ("dblp", "/dblp/inproceedings[author]/title/text()"),
    ("psd",
     "/ProteinDatabase/ProteinEntry/reference/refinfo/authors/author/text()"),
    # Element output (serialize the matched subtree): on the fast tier
    # since PR 9; previously these fell back to the interpreted NC loop.
    ("shake-speech", "/PLAY/ACT/SCENE/SPEECH"),
    ("dblp-title", "/dblp/inproceedings[author]/title"),
    # Closure paths without predicates: the closure-stack kernel over
    # a lazy DFA, where the interpreted choice is XSQ-F.
    ("shake-closure", "//SCENE//SPEAKER/text()"),
    ("psd-closure", "//refinfo//author/text()"),
    # A text query whose wildcard step keeps its tag table open: the
    # parser builds a tuple for every tag, beside the text rows above
    # that it projects to their queries' tags.
    ("dblp-wildcard", "/dblp/inproceedings[@key]/*/text()"),
]

GENERATORS = {
    "shake": lambda size: generate_shake(target_bytes=size, seed=7),
    "nasa": lambda size: generate_nasa(target_bytes=size, seed=13),
    "dblp": lambda size: generate_dblp(target_bytes=size, seed=11),
    "psd": lambda size: generate_psd(target_bytes=size, seed=17),
}
GENERATORS["shake-speech"] = GENERATORS["shake"]
GENERATORS["dblp-title"] = GENERATORS["dblp"]
GENERATORS["shake-closure"] = GENERATORS["shake"]
GENERATORS["psd-closure"] = GENERATORS["psd"]
GENERATORS["dblp-wildcard"] = GENERATORS["dblp"]

ENGINES = {
    "codegen": lambda query: XSQEngineFast(query, cache=False),
    "nc": lambda query: XSQEngineNC(query, cache=False),
    "f": lambda query: XSQEngine(query, cache=False),
}


def auto_selection(query: str) -> Dict[str, object]:
    """What ``engine="auto"`` picks for ``query``, with the why.

    ``tier`` is codegen/nc/f; ``fallback`` is the
    :class:`~repro.errors.FastPathUnsupportedError` slug when the fast
    path is rejected (else None); ``kernel`` is the codegen note.
    """
    from repro.api import select_engine
    engine = select_engine(query, "auto", cache=False)
    if isinstance(engine, XSQEngineFast):
        return {"tier": "codegen", "fallback": None,
                "kernel": engine.kernel_note}
    from repro.xpath.parser import parse_query
    from repro.xsq.fastpath import unsupported_reason
    blocked = unsupported_reason(parse_query(query))
    return {"tier": "nc" if isinstance(engine, XSQEngineNC) else "f",
            "fallback": blocked[0] if blocked else None,
            "kernel": None}


def best_of(repeats, fn):
    best = None
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, value


def run_workload(dataset: str, query: str, xml: str, size: int,
                 repeats: int) -> Dict[str, object]:
    mbytes = len(xml.encode("utf-8")) / 1e6
    entry: Dict[str, object] = {
        "dataset": dataset,
        "query": query,
        "target_bytes": size,
        "mbytes": round(mbytes, 3),
        "engines": {},
    }
    result_counts = {}
    for key, make in ENGINES.items():
        try:
            engine = make(query)
        except ClosureNotSupportedError:
            continue  # XSQ-NC: closure queries are XSQ-F's
        elapsed, results = best_of(repeats, lambda: engine.run(xml))
        entry["engines"][key] = {
            "engine": engine.name,
            "seconds": round(elapsed, 4),
            "mb_per_s": round(mbytes / elapsed, 3),
            "results": len(results),
        }
        result_counts[key] = len(results)
    parser = PureParser()
    elapsed, events = best_of(repeats, lambda: parser.run(xml))
    entry["engines"]["pureparser"] = {
        "engine": parser.name,
        "seconds": round(elapsed, 4),
        "mb_per_s": round(mbytes / elapsed, 3),
        "events": events,
    }
    codegen = entry["engines"]["codegen"]["mb_per_s"]
    interpreted = max(entry["engines"][key]["mb_per_s"]
                      for key in ("nc", "f") if key in entry["engines"])
    entry["codegen_speedup_vs_interpreted"] = round(
        codegen / interpreted, 3)
    entry["fast_fraction_of_ceiling"] = round(
        codegen / entry["engines"]["pureparser"]["mb_per_s"], 3)
    entry["results_agree"] = len(set(result_counts.values())) == 1
    entry["selection"] = auto_selection(query)
    return entry


def workload_key(entry: Dict[str, object]) -> str:
    return "%s/%s" % (entry["dataset"], entry["target_bytes"])


def load_baseline(path: str) -> Optional[Dict[str, Dict[str, object]]]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        committed = json.load(handle)
    if committed.get("bench") != "throughput":
        return None
    return {workload_key(entry): entry
            for entry in committed.get("workloads", ())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000000,4000000",
                        help="comma-separated target sizes in bytes "
                             "(default %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="smallest size only (CI smoke); the size "
                             "stays in the full matrix so --check finds "
                             "it in the committed baseline")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per cell "
                             "(default %(default)s)")
    parser.add_argument("--out", default="BENCH_throughput.json",
                        help="JSON artifact path (default %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on result disagreement, on fast-path "
                             "throughput regression vs the committed "
                             "artifact, or if the fast path loses its "
                             "speedup floor")
    parser.add_argument("--regress-floor", type=float, default=0.20,
                        help="allowed fractional drop in fast-path MB/s "
                             "vs baseline (default 0.20 = 20%%)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required fast-tier-vs-interpreted speedup "
                             "(default %(default)s)")
    parser.add_argument("--min-fast-fraction", type=float, default=0.75,
                        help="required fraction of workloads whose "
                             "auto selection lands on the fast tier "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    sizes = sorted({int(size) for size in args.sizes.split(",")})
    repeats = args.repeats
    if args.quick:
        # Size shrinks but repeats stay: the speedup gate is a ratio of
        # best-of-N timings and N=1..2 is too noisy to gate CI on.
        sizes = sizes[:1]

    baseline = load_baseline(args.out) if args.check else None
    if args.check and baseline is None:
        print("note: no committed %s baseline; --check gates agreement "
              "and speedup only" % args.out, file=sys.stderr)

    entries: List[Dict[str, object]] = []
    failures: List[str] = []
    for dataset, query in WORKLOADS:
        for size in sizes:
            xml = GENERATORS[dataset](size)
            entry = run_workload(dataset, query, xml, size, repeats)
            entries.append(entry)
            engines = entry["engines"]
            selection = entry["selection"]
            print("%-13s %8d bytes  kernel=%-7.2f "
                  "nc=%-7s f=%-7.2f pure=%-7.2f MB/s  "
                  "speedup=%.2fx  tier=%s  agree=%s"
                  % (dataset, size,
                     engines["codegen"]["mb_per_s"],
                     ("%.2f" % engines["nc"]["mb_per_s"]
                      if "nc" in engines else "-"),
                     engines["f"]["mb_per_s"],
                     engines["pureparser"]["mb_per_s"],
                     entry["codegen_speedup_vs_interpreted"],
                     selection["tier"],
                     entry["results_agree"]))
            if not entry["results_agree"]:
                failures.append("%s: engines disagree on result count"
                                % workload_key(entry))
            speedup = entry["codegen_speedup_vs_interpreted"]
            if speedup < args.min_speedup:
                failures.append(
                    "%s: fast tier speedup %.2fx below the %.1fx floor"
                    % (workload_key(entry), speedup, args.min_speedup))
            if baseline is not None:
                committed = baseline.get(workload_key(entry))
                if committed is None:
                    continue
                floor = (committed["engines"]["codegen"]["mb_per_s"]
                         * (1.0 - args.regress_floor))
                if engines["codegen"]["mb_per_s"] < floor:
                    failures.append(
                        "%s: fast tier %.2f MB/s regressed more than "
                        "%.0f%% from committed %.2f MB/s"
                        % (workload_key(entry),
                           engines["codegen"]["mb_per_s"],
                           args.regress_floor * 100,
                           committed["engines"]["codegen"]["mb_per_s"]))

    on_fast_tier = sum(1 for entry in entries
                       if entry["selection"]["tier"] == "codegen")
    fast_tier_fraction = round(on_fast_tier / len(entries), 3)
    if fast_tier_fraction < args.min_fast_fraction:
        failures.append(
            "only %.0f%% of workloads land on the fast tier "
            "(floor %.0f%%)" % (fast_tier_fraction * 100,
                                args.min_fast_fraction * 100))

    artifact = {
        "bench": "throughput",
        "schema_version": SCHEMA_VERSION,
        "sizes": sizes,
        "repeats": repeats,
        "fast_tier_fraction": fast_tier_fraction,
        "workloads": entries,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.out)

    if args.check:
        if failures:
            for failure in failures:
                print("CHECK FAILED: %s" % failure, file=sys.stderr)
            return 1
        print("checks passed: results agree, fast-tier speedup >= "
              "%.1fx, %.0f%% of workloads on the fast tier, throughput "
              "within %.0f%% of baseline"
              % (args.min_speedup, fast_tier_fraction * 100,
                 args.regress_floor * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
