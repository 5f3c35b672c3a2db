"""Perf-regression ledger: diff schema-versioned BENCH_*.json artifacts.

The bench harness commits its measurements as JSON artifacts
(``BENCH_throughput.json``, ``BENCH_memory.json``,
``BENCH_parallel.json``, ``BENCH_latency.json``).  This module makes
perf claims mechanically
checkable across PRs:

* ``python -m repro.bench diff`` — compare every committed artifact
  against the working tree (baseline defaults to ``git show HEAD:...``),
  print per-workload deltas, and flag regressions beyond a threshold;
* ``python -m repro.bench diff OLD.json NEW.json`` — compare two
  explicit artifacts of the same kind;
* every diff appends one JSON line to ``BENCH_HISTORY.jsonl`` (unless
  ``--no-history``), so the repository accumulates a perf trajectory;
* ``--check`` exits non-zero when any regression crosses the
  threshold — the CI hook.

Metric direction is inferred from the name: rates (``mb_per_s``,
``docs_per_s``, ``*speedup*``, ``*fraction*``) regress when they drop,
everything else (``seconds``, ``peak_*``, ``delay_*``) regresses when
it grows.  A workload present only in the baseline is reported as
*dropped* (and counts as a failure under ``--check``); one present only
in the new artifact is *added* (informational).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

#: Artifacts ``diff`` picks up by default (repo-root relative).
DEFAULT_ARTIFACTS = ("BENCH_throughput.json", "BENCH_memory.json",
                     "BENCH_parallel.json", "BENCH_latency.json")

#: Default regression threshold: a metric must move >20% in the bad
#: direction to be flagged (benchmarks in shared CI runners are noisy;
#: the committed artifacts are medians-of-repeats but still jitter).
DEFAULT_THRESHOLD = 0.20

HISTORY_FILE = "BENCH_HISTORY.jsonl"

#: Name fragments marking higher-is-better metrics; everything else
#: (seconds, peaks, delays, byte counts) is lower-is-better.
_HIGHER_BETTER = ("mb_per_s", "docs_per_s", "per_s", "speedup",
                  "fraction", "throughput")


def metric_direction(name: str) -> bool:
    """True when larger values of ``name`` are better."""
    return any(fragment in name for fragment in _HIGHER_BETTER)


def load_artifact(spec: str, repo_root: str = ".") -> dict:
    """Load an artifact from a path or a ``REF:path`` git spec."""
    if ":" in spec and not os.path.exists(spec):
        ref, _, path = spec.partition(":")
        return _load_git(ref, path, repo_root)
    with open(spec, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_git(ref: str, path: str, repo_root: str) -> dict:
    out = subprocess.run(
        ["git", "show", "%s:%s" % (ref, path)],
        cwd=repo_root, capture_output=True, text=True)
    if out.returncode != 0:
        raise FileNotFoundError(
            "git show %s:%s failed: %s"
            % (ref, path, out.stderr.strip() or "unknown error"))
    return json.loads(out.stdout)


# -- flattening -----------------------------------------------------------

def flatten(artifact: dict) -> Dict[Tuple[str, str], float]:
    """``(workload_key, metric_name) -> value`` rows for any known kind.

    The workload key is the identity the paper's tables use (dataset +
    size for throughput, figure + engine + size for memory, dataset +
    corpus shape for parallel); unknown kinds fall back to a generic
    walk so future artifacts diff without code changes.
    """
    kind = artifact.get("bench", "unknown")
    rows: Dict[Tuple[str, str], float] = {}
    for workload in artifact.get("workloads", ()):
        if kind == "throughput":
            key = "%s@%s" % (workload.get("dataset", "?"),
                             workload.get("target_bytes", "?"))
            for engine, cell in workload.get("engines", {}).items():
                for metric in ("seconds", "mb_per_s"):
                    if metric in cell:
                        rows[(key, "%s.%s" % (engine, metric))] = \
                            cell[metric]
            for metric in ("fast_speedup_vs_interpreted",
                           "codegen_speedup_vs_interpreted",
                           "codegen_speedup_vs_fast",
                           "fast_fraction_of_ceiling"):
                if metric in workload:
                    rows[(key, metric)] = workload[metric]
            selection = workload.get("selection")
            if selection is not None:
                # 1.0 when auto selection lands on the fast tier; the
                # "fraction" fragment makes a 1 -> 0 move (a workload
                # dropping off the fast tier) a flagged regression.
                rows[(key, "selection.fast_tier_fraction")] = (
                    1.0 if selection.get("tier") == "codegen" else 0.0)
        elif kind == "memory-accounting":
            key = "%s/%s/%s@%s" % (
                workload.get("figure", "?"), workload.get("dataset", "?"),
                workload.get("engine", "?"),
                workload.get("target_bytes", "?"))
            for metric in ("peak_items", "peak_bytes", "peak_instances",
                           "delay_mean", "delay_max"):
                if metric in workload:
                    rows[(key, metric)] = workload[metric]
        elif kind == "latency":
            # Delivery-latency distributions from the serve pipeline.
            # The metric names deliberately avoid every higher-is-better
            # fragment: latency regresses when it *grows*.
            # Cells of identical subscriptions keep the plain key; a
            # cell of distinct queries is a different workload.
            key = "subs%s%s@%sdocs" % (
                workload.get("subscribers", "?"),
                "-distinct" if workload.get("distinct_queries", 1) > 1
                else "",
                workload.get("documents", "?"))
            for metric in ("delivery_p50_seconds", "delivery_p99_seconds",
                           "delivery_max_seconds"):
                if metric in workload:
                    rows[(key, metric)] = workload[metric]
        elif kind == "parallel":
            key = "%s@%sx%s" % (workload.get("dataset", "?"),
                                workload.get("docs", "?"),
                                workload.get("doc_bytes", "?"))
            for workers, cell in workload.get("workers", {}).items():
                for metric in ("seconds", "docs_per_s", "mb_per_s",
                               "speedup_vs_serial"):
                    if metric in cell:
                        rows[(key, "w%s.%s" % (workers, metric))] = \
                            cell[metric]
        else:
            key = str(workload.get("dataset")
                      or workload.get("name")
                      or workload.get("query", "?"))
            for metric, value in workload.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    rows[(key, metric)] = value
    return rows


# -- comparison -----------------------------------------------------------

class Delta:
    """One metric's movement between baseline and new."""

    __slots__ = ("workload", "metric", "old", "new", "ratio",
                 "higher_better", "regressed", "improved")

    def __init__(self, workload: str, metric: str, old: float, new: float,
                 threshold: float):
        self.workload = workload
        self.metric = metric
        self.old = old
        self.new = new
        self.ratio = (new / old) if old else (float("inf") if new else 1.0)
        self.higher_better = metric_direction(metric)
        if self.higher_better:
            bad = self.ratio < 1.0 - threshold
            good = self.ratio > 1.0 + threshold
        else:
            bad = self.ratio > 1.0 + threshold
            good = self.ratio < 1.0 - threshold
        self.regressed = bad
        self.improved = good

    @property
    def change_pct(self) -> float:
        return 100.0 * (self.ratio - 1.0)

    def as_dict(self) -> dict:
        return {"workload": self.workload, "metric": self.metric,
                "old": self.old, "new": self.new,
                "change_pct": round(self.change_pct, 2),
                "regressed": self.regressed, "improved": self.improved}


class DiffResult:
    """Comparison of one artifact pair."""

    def __init__(self, kind: str, deltas: List[Delta],
                 dropped: List[Tuple[str, str]], added: List[Tuple[str, str]],
                 schema_mismatch: Optional[str] = None):
        self.kind = kind
        self.deltas = deltas
        self.dropped = dropped
        self.added = added
        self.schema_mismatch = schema_mismatch

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas if d.improved]

    @property
    def ok(self) -> bool:
        return (not self.regressions and not self.dropped
                and self.schema_mismatch is None)

    def as_dict(self) -> dict:
        return {
            "bench": self.kind,
            "metrics": len(self.deltas),
            "regressions": [d.as_dict() for d in self.regressions],
            "improvements": [d.as_dict() for d in self.improvements],
            "dropped": ["%s %s" % pair for pair in self.dropped],
            "added": ["%s %s" % pair for pair in self.added],
            "schema_mismatch": self.schema_mismatch,
            "ok": self.ok,
        }


def diff_artifacts(old: dict, new: dict,
                   threshold: float = DEFAULT_THRESHOLD) -> DiffResult:
    """Compare two loaded artifacts of the same bench kind."""
    kind = new.get("bench", old.get("bench", "unknown"))
    mismatch = None
    if old.get("bench") != new.get("bench"):
        mismatch = ("bench kind %r vs %r"
                    % (old.get("bench"), new.get("bench")))
    elif old.get("schema_version") != new.get("schema_version"):
        mismatch = ("schema_version %r vs %r — regenerate the baseline "
                    "before comparing"
                    % (old.get("schema_version"), new.get("schema_version")))
    old_rows = flatten(old)
    new_rows = flatten(new)
    deltas = [Delta(key[0], key[1], old_rows[key], new_rows[key], threshold)
              for key in sorted(old_rows) if key in new_rows]
    dropped = sorted(key for key in old_rows if key not in new_rows)
    added = sorted(key for key in new_rows if key not in old_rows)
    return DiffResult(kind, deltas, dropped, added, mismatch)


# -- rendering ------------------------------------------------------------

def render(result: DiffResult, old_label: str, new_label: str,
           verbose: bool = False) -> str:
    lines = ["== %s: %s -> %s" % (result.kind, old_label, new_label)]
    if result.schema_mismatch:
        lines.append("  !! %s" % result.schema_mismatch)
    flagged = {id(d) for d in result.regressions}
    flagged |= {id(d) for d in result.improvements}
    shown = [d for d in result.deltas
             if verbose or id(d) in flagged]
    width = max((len(d.workload) for d in shown), default=8)
    for delta in shown:
        marker = ("REGRESSED" if delta.regressed
                  else "improved" if delta.improved else "")
        lines.append(
            "  %-*s %-28s %12.4g -> %-12.4g %+7.1f%%  %s"
            % (width, delta.workload, delta.metric, delta.old,
               delta.new, delta.change_pct, marker))
    for workload, metric in result.dropped:
        lines.append("  %-*s %-28s DROPPED (present only in baseline)"
                     % (width, workload, metric))
    for workload, metric in result.added:
        lines.append("  %-*s %-28s added" % (width, workload, metric))
    lines.append(
        "  %d metrics compared, %d regressed, %d improved%s"
        % (len(result.deltas), len(result.regressions),
           len(result.improvements),
           ", %d dropped" % len(result.dropped) if result.dropped else ""))
    return "\n".join(lines)


def append_history(results: List[Tuple[str, DiffResult]], old_label: str,
                   new_label: str, threshold: float,
                   path: str = HISTORY_FILE) -> None:
    record = {
        "type": "bench-diff",
        "ts": round(time.time(), 3),
        "baseline": old_label,
        "current": new_label,
        "threshold": threshold,
        "artifacts": {name: result.as_dict() for name, result in results},
        "ok": all(result.ok for _, result in results),
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# -- CLI ------------------------------------------------------------------

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench diff",
        description="Compare BENCH_*.json artifacts (working tree vs git "
                    "HEAD by default), print per-workload deltas, and "
                    "append the outcome to %s." % HISTORY_FILE)
    parser.add_argument("artifacts", nargs="*", default=[],
                        help="either two explicit artifacts (OLD NEW, "
                             "paths or REF:path specs) or a list of "
                             "working-tree artifacts to check against "
                             "--against (default: every committed "
                             "BENCH_*.json)")
    parser.add_argument("--against", default="HEAD", metavar="REF",
                        help="git ref supplying the baseline when OLD "
                             "is not given explicitly (default: HEAD)")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD, metavar="FRACTION",
                        help="flag metrics moving more than this "
                             "fraction in the bad direction (default: "
                             "%.2f)" % DEFAULT_THRESHOLD)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any regression (or dropped "
                             "workload, or schema mismatch) is found")
    parser.add_argument("--verbose", action="store_true",
                        help="print every compared metric, not just "
                             "flagged ones")
    parser.add_argument("--history", default=HISTORY_FILE, metavar="PATH",
                        help="ledger file to append to (default: "
                             "%s)" % HISTORY_FILE)
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this diff to the ledger")
    args = parser.parse_args(argv)

    pairs: List[Tuple[str, str, str]] = []  # (name, old_spec, new_spec)
    if len(args.artifacts) == 2 and all(
            os.path.exists(a) or ":" in a for a in args.artifacts):
        old_spec, new_spec = args.artifacts
        pairs.append((os.path.basename(new_spec.split(":")[-1]),
                      old_spec, new_spec))
        old_label, new_label = old_spec, new_spec
    else:
        names = args.artifacts or [name for name in DEFAULT_ARTIFACTS
                                   if os.path.exists(name)]
        if not names:
            print("bench diff: no BENCH_*.json artifacts found here",
                  file=sys.stderr)
            return 2
        for name in names:
            pairs.append((os.path.basename(name),
                          "%s:%s" % (args.against, name), name))
        old_label, new_label = args.against, "working tree"

    results: List[Tuple[str, DiffResult]] = []
    failures = 0
    for name, old_spec, new_spec in pairs:
        try:
            old = load_artifact(old_spec)
            new = load_artifact(new_spec)
        except (OSError, ValueError) as exc:
            print("bench diff: cannot load %s vs %s: %s"
                  % (old_spec, new_spec, exc), file=sys.stderr)
            failures += 1
            continue
        result = diff_artifacts(old, new, threshold=args.threshold)
        results.append((name, result))
        print(render(result, old_label, new_label, verbose=args.verbose))
        print()
    if not args.no_history and results:
        try:
            append_history(results, old_label, new_label, args.threshold,
                           path=args.history)
        except OSError as exc:
            print("bench diff: cannot append to %s: %s"
                  % (args.history, exc), file=sys.stderr)
    bad = failures + sum(0 if result.ok else 1 for _, result in results)
    if bad:
        print("bench diff: %d artifact(s) regressed or failed to load"
              % bad, file=sys.stderr)
        return 1 if args.check else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
