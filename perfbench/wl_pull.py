"""``pull``: each query over its whole Figure 15 corpus with ``run()``.

Per-byte work dominates: parse, the codegen kernel or the interpreted
runtimes, buffers and serialization.  No pool, no server, and per-call
fixed costs are small next to 200 KB of input.

The query set per corpus: the paper's Figure 15-17 queries, queries
sampled by ``QueryWorkloadGenerator`` (predicates, ``*``, ``//``), and
``[not(..)]`` / ``[a or b]`` queries that ``auto`` runs on XSQ-NC.
"""

from __future__ import annotations

import time

from perfbench import inputs, ledger
from perfbench.common import (Tally, census, compare_results, compile_cold,
                              digest, expat_floor, floor_seconds, median,
                              peak_rss_mb, pinned, ratio, repeat_timed,
                              tier_of)
from perfbench.trace import Patches, Tracer, install_layer_spans, \
    self_times, total_times

#: Bytes per corpus.  Large enough that per-call costs vanish, small
#: enough that every query runs several times within a run.
CORPUS_BYTES = 200_000
SAMPLED_PER_CORPUS = 16
BOOLEAN_PER_CORPUS = 4
#: Cold compiles timed before each round, so the set-up samples span
#: the run (and its machine speeds) like the rounds do.
SETUP_PER_ROUND = 3
COMPILED = ("codegen", "fast")

#: The query sample is fixed; the seed varies the corpora.  A fresh
#: query mix per seed would swing throughput by a fifth from seed to
#: seed (a query that serializes whole records costs several times one
#: that selects a few names), burying any change under the mix.
QUERY_SEED = 2003


def build(seed):
    corpora = {}
    pairs = []
    for i, family in enumerate(inputs.FAMILIES):
        xml = inputs.corpus(family, CORPUS_BYTES, seed * 16 + i)
        corpora[family] = xml
        queries = list(inputs.PAPER_QUERIES[family])
        sample = inputs.corpus(family, CORPUS_BYTES, QUERY_SEED)
        queries += inputs.sampled_queries(sample, QUERY_SEED + i,
                                          SAMPLED_PER_CORPUS)
        queries += inputs.boolean_queries(sample, QUERY_SEED + i,
                                          BOOLEAN_PER_CORPUS)
        pairs.extend((family, q) for q in queries)
    return corpora, pairs


def compile_all(pairs):
    return compile_cold([q for _, q in pairs])


def measure(compiled, pairs, corpora, seconds, digests, tally,
            between=None):
    """Run every pair in turn, whole rounds, until ``seconds`` pass.

    ``between()``, if given, runs before each round, outside its timing.

    Each ``run()`` is preceded by the parse floor over the same bytes,
    so the two see the same machine speed.  A tier's relative
    throughput in a round is its floor seconds over its ``run()``
    seconds; the metric is the median over rounds, so a stall confined
    to one round does not move it.  Absolute MB/s go to the detail.
    """
    blobs = {f: x.encode("utf-8") for f, x in corpora.items()}
    tiers = [tier_of(cq.engine) for cq in compiled]
    rel = {"compiled": [], "interpreted": []}
    mb_s = {"compiled": [], "interpreted": []}
    slowdowns = [[] for _ in pairs]
    latencies = []
    deadline = time.perf_counter() + seconds
    while True:
        if between is not None:
            between()
        by_tier = {"compiled": [0, 0.0, 0.0], "interpreted": [0, 0.0, 0.0]}
        for i, (family, query) in enumerate(pairs):
            doc = corpora[family]
            floor = floor_seconds(blobs[family])
            sink = []
            t0 = time.perf_counter()
            try:
                compiled[i].run(doc, sink)
            except Exception as exc:  # counted, reported, run continues
                tally.fail("%s: %s: %s" % (query, type(exc).__name__, exc))
                continue
            elapsed = time.perf_counter() - t0
            digests[i].append(digest(sink))
            latencies.append(elapsed)
            slowdowns[i].append(elapsed / floor)
            row = by_tier["compiled" if tiers[i] in COMPILED
                          else "interpreted"]
            row[0] += len(blobs[family])
            row[1] += elapsed
            row[2] += floor
        for tier, (nbytes, spent, floor) in by_tier.items():
            rel[tier].append(ratio(floor, spent))
            mb_s[tier].append(ratio(nbytes / 1e6, spent))
        if time.perf_counter() >= deadline:
            break
    # The median query of the compiled tiers: across all tiers the
    # middle rank falls in the sparse top of the compiled cluster, just
    # below the interpreted one, and jumped by a third between runs.
    per_query = [median(s) for s, tier in zip(slowdowns, tiers)
                 if s and tier in COMPILED]
    return {
        "throughput_vs_floor": median(rel["compiled"]),
        "alt_throughput_vs_floor": median(rel["interpreted"]),
        "latency_p50_vs_floor": median(per_query) if per_query else 0,
        "compiled_mb_per_s": median(mb_s["compiled"]),
        "interpreted_mb_per_s": median(mb_s["interpreted"]),
        "latency_p50_ms": median(latencies) * 1000.0 if latencies else 0,
        "rounds": len(rel["compiled"]),
        "runs": len(latencies),
    }


def decompose(compiled, pairs, corpora, tracer, outputs, run_stats):
    """One traced pass through the layers ``run()`` strings together.

    Batches (or events) are built first, then fed to the engine's push
    handle, so parse and automaton time land in separate spans.
    """
    from repro.streaming.source import coerce_source
    blobs = {f: x.encode("utf-8") for f, x in corpora.items()}
    with tracer.span("streaming.expat_floor"):
        expat_floor([blobs[f] for f, _ in pairs])
    for i, (family, _query) in enumerate(pairs):
        engine = compiled[i].engine
        doc = corpora[family]
        out = []
        if tier_of(engine) in COMPILED:
            span = tracer.span("streaming.batches")
            with span:
                batches = list(coerce_source(doc).batches(engine.plan.tags))
                span.count = sum(len(b) for b in batches)
            handle = engine.push()
            for batch in batches:
                out.extend(handle.feed_batch(batch))
        else:
            span = tracer.span("streaming.events")
            with span:
                events = list(coerce_source(doc).events())
                span.count = len(events)
            handle = engine.push()
            out.extend(handle.feed_events(events))
        out.extend(handle.finish())
        outputs[i] = out
        run_stats.append(engine.stats)


def run(seed, seconds, trace, spans_path):
    with pinned():
        return _run(seed, seconds, trace, spans_path)


def _run(seed, seconds, trace, spans_path):
    from repro.baselines.dom import build_dom, evaluate

    corpora, pairs = build(seed)
    tally = Tally()
    setup = []
    compiled = compile_all(pairs)
    digests = [[] for _ in pairs]
    e2e = measure(compiled, pairs, corpora, seconds, digests, tally,
                  between=lambda: setup.extend(repeat_timed(
                      lambda: compile_all(pairs), SETUP_PER_ROUND)))
    e2e["setup_s"] = median(setup)
    e2e["peak_rss_mb"] = peak_rss_mb()
    detail = {"census": census([(q, cq.engine) for (_, q), cq
                                in zip(pairs, compiled)]),
              "corpus_bytes": {f: len(x) for f, x in corpora.items()},
              "setup_samples_s": setup,
              "rounds": e2e.pop("rounds"), "runs": e2e.pop("runs")}
    result = {"e2e": e2e, "detail": detail, "tally": tally}

    decomposed = [None] * len(pairs)
    if trace:
        tracer = Tracer()
        run_stats = []
        # The traced end-to-end pass pays for the wrappers but keeps
        # no spans; the ledger comes from the single pass after it.
        # Half the run length: it reports rates and medians, which do
        # not depend on it, and keeps traced runs affordable.
        with Patches(Tracer(keep=False)) as patches:
            install_layer_spans(patches)
            result["e2e_traced"] = measure(compiled, pairs, corpora,
                                           seconds / 2, digests, tally)
        with Patches(tracer) as patches:
            install_layer_spans(patches)
            with tracer.span("bench.setup"):
                compiled = compile_all(pairs)
            decompose(compiled, pairs, corpora, tracer, decomposed,
                      run_stats)
        selfs = self_times(tracer.spans)
        layers = ledger.from_spans(selfs, total_times(tracer.spans))
        layers.update(ledger.buffer_metrics(run_stats))
        layers.update(ledger.tier_metrics(detail["census"]["tiers"]))
        layers["trace.overhead_ratio"] = ratio(
            e2e["throughput_vs_floor"],
            result["e2e_traced"]["throughput_vs_floor"])
        result["layers"] = layers
        tracer.dump(spans_path, {"workload": "pull", "seed": seed})

    # The oracle, outside every timed region.
    doms = {f: build_dom(x) for f, x in corpora.items()}
    for i, (family, query) in enumerate(pairs):
        expected = evaluate(doms[family], query)
        want = digest(expected)
        for got in digests[i]:
            if got == want:
                tally.ok()
            else:
                tally.fail("%s on %s: run output differs from the DOM "
                           "oracle (%s)" % (query, family, compare_results(
                               expected, compiled[i].run(corpora[family]))
                               or "a rerun matched"))
        if decomposed[i] is not None:
            tally.check(expected, decomposed[i],
                        "%s on %s (layered pass)" % (query, family))
    return result
