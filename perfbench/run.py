"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pull --seed 1 --seconds 25 --trace 0

``--workload`` is ``pull``, ``small-docs`` or ``serve`` (see
``perfbench/README.md`` for why each exists).  The inputs are generated
from ``--seed``; the program under test (``src/repro``) is imported from
the checkout.  Every output is checked against the DOM oracle.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no wrapper installed; with ``--trace 1`` they are the per-layer ones
from a traced pass (plus the traced run's own end-to-end numbers in
the report, beside untraced ones, to show what tracing costs).  Earlier
lines carry the run's detail (traffic census, open-loop lateness,
tail latency with its sample count); the same detail, and in traced
runs every span, is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("pull", "small-docs", "serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program to measure: %s/repro is missing"
              % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)

    from perfbench import ledger
    from perfbench.common import environment

    if args.workload == "pull":
        from perfbench import wl_pull as workload
    elif args.workload == "small-docs":
        from perfbench import wl_small_docs as workload
    else:
        from perfbench import wl_serve as workload

    outdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    started = time.time()
    result = workload.run(args.seed, args.seconds, bool(args.trace),
                          spans_path=stem + ".spans.json")
    tally = result["tally"]
    catalogue = ledger.PER_LAYER if args.trace else ledger.END_TO_END
    values = result["layers"] if args.trace else result["e2e"]
    if not args.trace:
        missing = [n for n, _ in catalogue if not values.get(n)]
        if missing:
            tally.fail("end-to-end metric(s) not measured: %s"
                       % ", ".join(missing))
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.time() - started,
        "environment": environment(),
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.examples,
        "e2e": result["e2e"],
        "detail": result["detail"],
    }
    if args.trace:
        report["layers"] = result["layers"]
        report["e2e_traced"] = result["e2e_traced"]
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({"detail": report}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": ledger.complete(values, catalogue),
    }))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter shutdown: after a worker-pool error, shutdown
    # joins a multiprocessing feeder thread still blocked on a dead
    # worker's pipe, and never returns.  Every process this run started
    # has been stopped and waited for by now.
    os._exit(code)
