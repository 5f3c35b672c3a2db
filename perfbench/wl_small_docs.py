"""``small-docs``: thousands of few-KB documents, pushed and bulk-run.

Per-document and per-chunk fixed costs dominate: opening and finishing
a push session, one resumable-parser call per 256-byte chunk, and the
bulk runner's per-document task handling.  Kernel work per byte is
small.  The same (query, document) pairs run, timed, two ways:

* ``CompiledQuery.push()`` fed in 256-byte chunks, then ``finish()``;
* ``CompiledQuery.run_bulk(docs, workers=1)``, one call per query over
  the documents of its corpus: the bulk runner's serial path, in this
  process.

The traced run also runs ``run_bulk(docs, workers=nproc)``, pool
start-up included: the only workload that starts the pool
(``repro.parallel``).  The pool's wall time is spent starting workers
and moving documents through pipes, costs that do not follow the parse
floor's speed, so against the floor it spread too much to be an
end-to-end metric; its figures are per-layer.
"""

from __future__ import annotations

import os
import time

from perfbench import inputs, ledger
from perfbench.common import (Tally, census, compare_results, compile_cold,
                              expat_floor, floor_seconds, median,
                              peak_rss_mb, pinned, ratio, repeat_timed)
from perfbench.trace import Patches, Tracer, install_layer_spans, \
    self_times, total_times

DOCS = 400
CHUNK = 256
#: Cold compiles timed before each pass, so the set-up samples span
#: the run (and its machine speeds) like the passes do.
SETUP_PER_PASS = 5
#: Share of ``--seconds`` spent on the push path; the rest is bulk.
PUSH_SHARE = 0.5
WORKERS = os.cpu_count() or 1


def build(seed):
    docs = inputs.small_docs(DOCS, seed)
    queries = [(family, q) for family in inputs.FAMILIES
               for q in inputs.SMALL_DOC_QUERIES[family]]
    # (query index, doc index) for every doc of the query's corpus.
    pairs = [(qi, di) for qi, (family, _) in enumerate(queries)
             for di, (doc_family, _) in enumerate(docs)
             if doc_family == family]
    return docs, queries, pairs


def compile_all(queries):
    return compile_cold([q for _, q in queries])


def push_pass(compiled, docs, chunked, pairs, check, blobs=None,
              slowdowns=None, run_stats=None):
    """Every pair through a push session; returns (bytes, seconds, floor).

    ``check(pair, label, results)`` sees each session's output, after
    its timing.  With ``blobs``, each session is preceded by the parse
    floor over the same document (``floor`` is their sum, else 0), and
    ``slowdowns`` gets each session's seconds over its floor's.
    """
    pushed = 0
    spent = 0.0
    floors = 0.0
    for qi, di in pairs:
        floor = floor_seconds(blobs[di]) if blobs is not None else 0.0
        t0 = time.perf_counter()
        session = compiled[qi].push()
        out = []
        for chunk in chunked[di]:
            out.extend(session.feed(chunk))
        out.extend(session.finish())
        elapsed = time.perf_counter() - t0
        check((qi, di), "push", out)
        pushed += len(docs[di][1])
        spent += elapsed
        floors += floor
        if slowdowns is not None:
            slowdowns.append(elapsed / floor)
        if run_stats is not None:
            run_stats.append(compiled[qi].stats)
    return pushed, spent, floors


def bulk_pass(compiled, docs, queries, check, workers, tally,
              blobs=None, parallel=None):
    """One ``run_bulk`` per query over its corpus.

    Returns (bytes, seconds, floor): ``seconds`` sums the calls' wall
    times.  With ``blobs``, each call is preceded by the parse floor
    over its documents, one after another in this process; ``floor`` is
    the sum of those floors (else 0).

    A call that raises (the pool reporting a worker crash) fails every
    document it had not yet returned; the pass goes on.
    """
    from repro.errors import ReproError
    done = 0
    spent = 0.0
    floors = 0.0
    for qi, (family, query) in enumerate(queries):
        members = [d for d, (f, _) in enumerate(docs) if f == family]
        if blobs is not None:
            floors += expat_floor([blobs[d] for d in members])
        t0 = time.perf_counter()
        first = None
        bulk = compiled[qi].run_bulk([docs[d][1] for d in members],
                                     workers=workers, on_error="skip")
        returned = 0
        try:
            for n, result in enumerate(bulk):
                returned += 1
                if first is None:
                    first = time.perf_counter() - t0
                if result.ok:
                    check((qi, members[n]), "bulk", result.results)
                else:
                    tally.fail("%s (bulk, doc #%d): %s"
                               % (query, members[n], result.error))
        except ReproError as exc:
            tally.fail("%s (bulk, %d of %d docs returned): %s: %s"
                       % (query, returned, len(members),
                          type(exc).__name__, exc),
                       n=len(members) - returned)
        wall = time.perf_counter() - t0
        spent += wall
        done += sum(len(docs[d][1]) for d in members)
        if parallel is not None:
            stats = bulk.worker_stats.values()
            parallel["first_result_s"] += first or 0.0
            parallel["worker_busy_s"] += sum(s.get("busy_seconds", 0.0)
                                             for s in stats)
            parallel["chunks"] += sum(s.get("chunks", 0) for s in stats)
            parallel["capacity_s"] += workers * wall
    return done, spent, floors


def run(seed, seconds, trace, spans_path):
    from repro.baselines.dom import build_dom, evaluate

    docs, queries, pairs = build(seed)
    chunked = [inputs.chunks(xml, CHUNK) for _, xml in docs]
    blobs = [xml.encode("utf-8") for _, xml in docs]
    tally = Tally()
    setup = []

    def set_up():
        with pinned():
            setup.extend(repeat_timed(lambda: compile_all(queries),
                                      SETUP_PER_PASS))

    compiled = compile_all(queries)
    # The oracle, before the timed region.  Each output is checked as
    # it comes, outside its call's timing, and never kept: a heap that
    # grew with the run would slow its later passes and raise its RSS.
    expected = {}
    for di, (doc_family, xml) in enumerate(docs):
        dom = build_dom(xml)
        for qi, (family, query) in enumerate(queries):
            if family == doc_family:
                expected[(qi, di)] = evaluate(dom, query)

    def check(pair, label, got):
        why = compare_results(expected[pair], got)
        if why is None:
            tally.ok()
        else:
            tally.fail("%s (%s, doc #%d): %s"
                       % (queries[pair[0]][1], label, pair[1], why))

    def measure(seconds, between=lambda: None):
        """Whole passes of each path, each relative to its parse floor.

        A pass's relative throughput is its floor seconds over its own
        wall seconds; the metrics are medians over passes.  Absolute
        rates go to the detail.  ``between()`` runs before each pass,
        outside its timing.
        """
        slowdowns = []
        push_rel = []
        push_mb = []
        sessions = 0
        push_wall = 0.0
        bulk_rel = []
        bulk_mb = []
        bulk_docs = 0
        bulk_wall = 0.0
        with pinned():
            deadline = time.perf_counter() + seconds * PUSH_SHARE
            while True:
                between()
                pushed, spent, floor = push_pass(compiled, docs, chunked,
                                                 pairs, check, blobs,
                                                 slowdowns)
                push_rel.append(floor / spent)
                push_mb.append(pushed / 1e6 / spent)
                sessions += len(pairs)
                push_wall += spent
                if time.perf_counter() >= deadline:
                    break
            deadline = time.perf_counter() + seconds * (1 - PUSH_SHARE)
            while True:
                between()
                bulked, wall, floor = bulk_pass(compiled, docs, queries,
                                                check, 1, tally, blobs)
                bulk_rel.append(floor / wall)
                bulk_mb.append(bulked / 1e6 / wall)
                bulk_docs += len(pairs)
                bulk_wall += wall
                if time.perf_counter() >= deadline:
                    break
        return {"throughput_vs_floor": median(push_rel),
                "alt_throughput_vs_floor": median(bulk_rel),
                "latency_p50_vs_floor": median(slowdowns),
                "push_mb_per_s": median(push_mb),
                "bulk_mb_per_s": median(bulk_mb),
                "push_docs_per_s": sessions / push_wall,
                "bulk_docs_per_s": bulk_docs / bulk_wall}

    e2e = measure(seconds, set_up)
    e2e["setup_s"] = median(setup)
    e2e["peak_rss_mb"] = peak_rss_mb()
    detail = {"census": census([(q, cq.engine) for (_, q), cq
                                in zip(queries, compiled)]),
              "documents": len(docs), "chunk_bytes": CHUNK,
              "workers": WORKERS, "pairs": len(pairs),
              "doc_bytes_mean": sum(len(x) for _, x in docs) / len(docs),
              "setup_samples_s": setup}
    result = {"e2e": e2e, "detail": detail, "tally": tally}

    if trace:
        tracer = Tracer()
        run_stats = []
        parallel = dict.fromkeys(("first_result_s", "worker_busy_s",
                                  "chunks", "capacity_s"), 0.0)
        # The traced end-to-end pass pays for the wrappers but keeps
        # no spans; the ledger comes from the single pass after it.
        # Half the run length: it reports rates and medians, which do
        # not depend on it, and keeps traced runs affordable.
        with Patches(Tracer(keep=False)) as patches:
            install_layer_spans(patches)
            result["e2e_traced"] = measure(seconds / 2)
        with Patches(tracer) as patches:
            install_layer_spans(patches)
            with tracer.span("bench.setup"):
                compiled = compile_all(queries)
            with tracer.span("streaming.expat_floor"):
                expat_floor([blobs[di] for _, di in pairs])
            push_pass(compiled, docs, chunked, pairs, check,
                      run_stats=run_stats)
        # The pool's own clock, outside the wrappers: spans cannot
        # follow work into worker processes.  Unpinned: the workers
        # need every CPU.
        _, pooled, _ = bulk_pass(compiled, docs, queries, check, WORKERS,
                                 tally, parallel=parallel)
        t0 = time.perf_counter()
        bulk_pass(compiled, docs, queries, check, 1, tally)
        inprocess = time.perf_counter() - t0
        layers = ledger.from_spans(self_times(tracer.spans),
                                   total_times(tracer.spans))
        layers.update(ledger.buffer_metrics(run_stats))
        layers.update(ledger.tier_metrics(detail["census"]["tiers"]))
        layers.update({
            "parallel.first_result_s": parallel["first_result_s"],
            "parallel.worker_busy_s": parallel["worker_busy_s"],
            "parallel.busy_ratio": (parallel["worker_busy_s"]
                                    / parallel["capacity_s"]),
            "parallel.chunks": int(parallel["chunks"]),
            "parallel.docs_per_s": len(pairs) / pooled,
            "parallel.inprocess_s": inprocess,
            "trace.overhead_ratio": ratio(
                e2e["throughput_vs_floor"],
                result["e2e_traced"]["throughput_vs_floor"]),
        })
        result["layers"] = layers
        tracer.dump(spans_path, {"workload": "small-docs", "seed": seed})

    return result
