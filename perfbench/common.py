"""Helpers shared by the workloads: percentiles, oracle checks, census.

Nothing here imports :mod:`repro` at module level, so the helpers (and
their tests) run without the program on the path.
"""

from __future__ import annotations

import contextlib
import math
import platform
import os
import resource
import time

#: Percentiles a tail report may use, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, pct):
    """The ``pct`` percentile of ``values`` by linear interpolation.

    The same definition as ``numpy.percentile``'s default: position
    ``(n - 1) * pct / 100`` in the sorted list.  ``values`` must be
    non-empty.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count, pct):
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return int(count * (100.0 - pct) / 100.0)


def tail_percentile(values):
    """``(pct, value)`` for the highest percentile the samples support.

    Supported means at least :data:`MIN_BEYOND` samples lie beyond it;
    ``(None, None)`` when even the lowest candidate is unsupported.
    """
    for pct in TAIL_CANDIDATES:
        if samples_beyond(len(values), pct) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return None, None


def latency_summary(seconds_list):
    """Median and supported tail of latencies, in ms, with the count."""
    if not seconds_list:
        return {"samples": 0}
    ms = [s * 1000.0 for s in seconds_list]
    pct, tail = tail_percentile(ms)
    out = {"samples": len(ms), "p50_ms": percentile(ms, 50),
           "max_ms": max(ms)}
    if pct is not None:
        out["tail_pct"] = pct
        out["tail_ms"] = tail
    p99 = percentile(ms, 99)
    out["p99_ms"] = p99
    out["p99_supported"] = samples_beyond(len(ms), 99) >= MIN_BEYOND
    return out


def median(values):
    return percentile(values, 50)


def ratio(num, den):
    """``num / den``, or 0 when nothing was measured (``den == 0``)."""
    return num / den if den else 0.0


def compare_results(expected, got):
    """``None`` when ``got`` equals ``expected``; else why not.

    Both are result lists in emission order.  The description names
    the first differing position, so a failure report is actionable.
    """
    if got == expected:
        return None
    if not isinstance(got, list):
        return "expected a list of results, got %s" % type(got).__name__
    for i, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            return "result #%d differs: expected %s, got %s" % (
                i, _clip(want), _clip(have))
    if len(got) < len(expected):
        return "missing %d result(s) after #%d" % (
            len(expected) - len(got), len(got))
    return "%d extra result(s) after #%d" % (
        len(got) - len(expected), len(expected))


def _clip(value, limit=60):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def digest(results):
    """A cheap in-process fingerprint of a result list.

    Taken after each timed call, so a run keeps one small tuple per
    output instead of every result list; after the timed region each
    digest must equal the digest of the DOM oracle's list.
    """
    return (len(results), hash(tuple(results)))


class Tally:
    """Attempted / failed operation counts plus the first failures."""

    def __init__(self, keep=5):
        self.attempted = 0
        self.failed = 0
        self.examples = []
        self._keep = keep

    def ok(self, n=1):
        self.attempted += n

    def fail(self, why, n=1):
        self.attempted += n
        self.failed += n
        if len(self.examples) < self._keep:
            self.examples.append(why)

    def check(self, expected, got, label):
        why = compare_results(expected, got)
        if why is None:
            self.ok()
        else:
            self.fail("%s: %s" % (label, why))
        return why is None


def peak_rss_mb(who=resource.RUSAGE_SELF):
    """Peak resident set size in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment():
    """Where the numbers were taken."""
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine()}


def tier_of(engine):
    """The tier ``engine="auto"`` landed on: codegen/fast/nc/f/other."""
    name = getattr(engine, "name", "")
    if name == "xsq-fast":
        return "codegen" if engine.kernel is not None else "fast"
    if name == "xsq-nc":
        return "nc"
    if name == "xsq-f":
        return "f"
    return name or "other"


def census(engines):
    """Per-query tier and kernel shape, plus tier counts."""
    rows = []
    counts = {"codegen": 0, "fast": 0, "nc": 0, "f": 0}
    for text, engine in engines:
        tier = tier_of(engine)
        counts[tier] = counts.get(tier, 0) + 1
        rows.append({"query": text, "tier": tier,
                     "kernel": getattr(engine, "kernel_note", None)})
    return {"tiers": counts, "queries": rows}


def compile_cold(texts):
    """``repro.compile`` every query with the compile cache cleared."""
    import repro
    from repro.xsq.compile_cache import clear_default_cache
    clear_default_cache()
    return [repro.compile(text) for text in texts]


def repeat_timed(fn, reps):
    """Run ``fn`` ``reps`` times; return the list of wall times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def floor_seconds(blob):
    """Seconds for one parse of ``blob`` (bytes) by pyexpat, no-op handlers.

    The parse floor every streaming tier sits on: no events are built,
    no tags interned, nothing matched.  The workloads time it next to
    each measured call and report the call relative to it (the paper's
    relative throughput, Sec 6.2): the floor is not program code, so no
    change to the program moves it, while a slower machine slows both.
    """
    from xml.parsers import expat

    def noop(*_args):
        pass

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = noop
    parser.EndElementHandler = noop
    parser.CharacterDataHandler = noop
    t0 = time.perf_counter()
    parser.Parse(blob, True)
    return time.perf_counter() - t0


def expat_floor(blobs):
    """Seconds of the parse floor over every blob of ``blobs``."""
    return sum(floor_seconds(blob) for blob in blobs)


@contextlib.contextmanager
def pinned():
    """Run the block on one CPU, the first this process may use.

    On a shared host each CPU's speed drifts on its own; a process that
    moves between CPUs carries the drift of both, while a pinned one
    and the parse floor timed beside it see the same speed.
    """
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(home)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)
