"""Command-line interface: the reproduction's stand-in for the paper's
GUI (Figure 13).

Usage::

    xsq QUERY [FILE]                 # evaluate; FILE defaults to stdin
    xsq --engine nc QUERY FILE       # force the deterministic engine
    xsq --explain QUERY              # print the compiled HPDT
    xsq --dot QUERY                  # GraphViz rendering of the HPDT
    xsq --stats QUERY FILE           # run and report buffer statistics
    xsq --streaming QUERY FILE       # print results as they stream out

    xsq trace QUERY [FILE]           # explain-my-query: run with the
                                     # observability layer attached and
                                     # print each item's buffer journey
    xsq trace QUERY FILE --jsonl out.jsonl --metrics --explain --flame

    xsq top QUERY [FILE]             # live per-query buffer occupancy,
                                     # high-water marks and emission
                                     # delays while the stream processes
    xsq top QUERY FILE --audit       # + the necessary-buffering auditor

    xsq bulk QUERY FILE [FILE ...]   # evaluate the query over a corpus,
                                     # sharded across worker processes;
                                     # output order == argument order
    xsq bulk QUERY --sources-from list.txt --workers 8 --stats

    xsq profile QUERY FILE           # EXPLAIN ANALYZE: per-phase and
                                     # per-hot-entity wall-time report
    xsq profile QUERY FILE --fig18 --json --folded --compare f

    xsq serve-metrics QUERY FILE     # run the query with /metrics,
                                     # /healthz and /snapshot served
                                     # over HTTP while (and after) the
                                     # stream processes
    xsq serve-metrics QUERY FILE --port 9099 --duration 60

    xsq serve                        # XSQ as a service: persistent
                                     # XPath subscriptions over a
                                     # JSON-lines TCP protocol, chunks
                                     # pushed in, results fanned out
    xsq serve --port 9090 --metrics-port 9099 --max-subs-per-tenant 100

    xsq flight-dump --port 9090      # pull a running server's flight-
                                     # recorder ring as JSON (the same
                                     # payload the ``dump`` op returns)
    xsq flight-dump --port 9090 --out flight.json

Also available as ``python -m repro`` (so ``python -m repro trace ...``
is the ``repro trace`` subcommand).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ReproError
from repro.xsq.hpdt import Hpdt


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq",
        description="Evaluate an XPath query over streaming XML (the XSQ "
                    "system of Peng & Chawathe, SIGMOD 2003).")
    parser.add_argument("query", nargs="?", default=None,
                        help="XPath query in the supported subset")
    parser.add_argument("file", nargs="?", default=None,
                        help="XML file to query (default: stdin)")
    parser.add_argument("--queries-file", default=None, metavar="FILE",
                        help="run every query in FILE (one per line, "
                             "#-comments allowed) in a single pass over "
                             "the input, printing results per query")
    parser.add_argument("--engine", choices=("f", "nc", "fast", "auto"),
                        default="auto",
                        help="f = XSQ-F (full), nc = XSQ-NC (no closures), "
                             "fast = compiled fast path, auto = fast when "
                             "possible, else nc, else f")
    parser.add_argument("--explain", action="store_true",
                        help="print the compiled HPDT and exit")
    parser.add_argument("--dot", action="store_true",
                        help="print the HPDT as GraphViz dot and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print run statistics after the results")
    parser.add_argument("--streaming", action="store_true",
                        help="emit results as they are determined "
                             "(incremental values for aggregates)")
    parser.add_argument("--format", choices=("plain", "xml", "json"),
                        default="plain",
                        help="result envelope (default: plain lines)")
    parser.add_argument("--dtd", default=None, metavar="DTD_FILE",
                        help="validate the stream against this DTD while "
                             "querying (same single pass) AND use it as "
                             "an optimizer input: schema-aware "
                             "compilation prunes transitions, resolves "
                             "predicates eagerly, and skips buffering "
                             "where the schema proves it unnecessary")
    parser.add_argument("--check", action="store_true",
                        help="run the well-formedness PDA alongside the "
                             "query (Section 3.1)")
    return parser


def _run_queries_file(args) -> int:
    """Batch mode: every query in the file, one pass over the input."""
    from repro.xsq.multiquery import MultiQueryEngine
    with open(args.queries_file, "r", encoding="utf-8") as handle:
        queries = [line.strip() for line in handle
                   if line.strip() and not line.lstrip().startswith("#")]
    if not queries:
        print("xsq: error: %s contains no queries" % args.queries_file,
              file=sys.stderr)
        return 2
    # args.query, when present alongside --queries-file, is actually the
    # input file (the positional slots shift).
    source = args.query if args.query is not None else (
        args.file if args.file is not None else _stdin_source())
    engine = MultiQueryEngine(queries)
    all_results = engine.run(source)
    for query, results in zip(queries, all_results):
        print("# %s (%d results)" % (query, len(results)))
        for value in results:
            print(value)
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq trace",
        description="Run a query with the observability layer attached "
                    "and explain, item by item, which BPDT buffer each "
                    "result flowed through and why non-results were "
                    "cleared.")
    parser.add_argument("query", help="XPath query in the supported subset")
    parser.add_argument("file", nargs="?", default=None,
                        help="XML file to query (default: stdin)")
    parser.add_argument("--engine", choices=("f", "nc", "fast", "auto"),
                        default="auto",
                        help="f = XSQ-F, nc = XSQ-NC, fast = compiled "
                             "fast path, auto = fast when possible, "
                             "else nc, else f")
    parser.add_argument("--jsonl", default=None, metavar="OUT",
                        help="write spans, buffer operations, and a "
                             "metrics snapshot as JSON lines to OUT "
                             "('-' for stdout)")
    parser.add_argument("--metrics", action="store_true",
                        help="print a Prometheus-style metrics snapshot")
    parser.add_argument("--explain", action="store_true",
                        help="also print the compiled HPDT (with --dtd: "
                             "plus the applied schema transformations)")
    parser.add_argument("--dtd", default=None, metavar="DTD_FILE",
                        help="use this DTD as an optimizer input: the "
                             "traced engine compiles schema-aware, and "
                             "--explain prints the schema plan")
    parser.add_argument("--flame", action="store_true",
                        help="print the span tree (phase timings)")
    return parser


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq top",
        description="Run a query with the resource accountant attached "
                    "and render live per-query buffer occupancy, "
                    "high-water marks, byte estimates and emission "
                    "delays while the stream is processed.")
    parser.add_argument("query", help="XPath query in the supported subset "
                                      "(unions run grouped)")
    parser.add_argument("file", nargs="?", default=None,
                        help="XML file to query (default: stdin)")
    parser.add_argument("--engine", choices=("f", "nc", "fast", "auto"),
                        default="auto",
                        help="f = XSQ-F, nc = XSQ-NC, fast = compiled "
                             "fast path, auto = fast when possible, "
                             "else nc, else f")
    parser.add_argument("--audit", action="store_true",
                        help="also run the necessary-buffering auditor; "
                             "exit 1 if it finds violations")
    parser.add_argument("--refresh-events", type=int, default=2000,
                        metavar="N",
                        help="redraw the table every N stream events "
                             "(default: 2000)")
    parser.add_argument("--no-clear", action="store_true",
                        help="append snapshots instead of clearing the "
                             "screen between redraws")
    parser.add_argument("--results", action="store_true",
                        help="print the query results after the table")
    return parser


# Mirrored so the parser help stays importable without repro.parallel.
_DEFAULT_CHUNK_SIZE = 4


def build_bulk_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq bulk",
        description="Evaluate one query (or a query file) over a corpus "
                    "of XML documents, sharded across worker processes "
                    "with results printed in argument order — identical "
                    "to running xsq once per file.")
    parser.add_argument("query", nargs="?", default=None,
                        help="XPath query in the supported subset")
    parser.add_argument("files", nargs="*", default=[],
                        help="XML files to query")
    parser.add_argument("--queries-file", default=None, metavar="FILE",
                        help="run every query in FILE (one per line, "
                             "#-comments allowed) over every document, "
                             "grouped in a single pass per document")
    parser.add_argument("--sources-from", default=None, metavar="LIST",
                        help="read additional source paths from LIST, one "
                             "per line ('-' for stdin; #-comments allowed)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes (default: cpu count; "
                             "1 = serial in-process)")
    parser.add_argument("--chunk-docs", type=int, default=None, metavar="N",
                        help="documents per work chunk (default: %d; "
                             "smaller = finer work stealing)"
                             % _DEFAULT_CHUNK_SIZE)
    parser.add_argument("--engine", choices=("f", "nc", "fast", "auto"),
                        default="auto",
                        help="engine forced in every worker (default: "
                             "auto = fast when possible, else nc, else f)")
    parser.add_argument("--keep-going", action="store_true",
                        help="report failing documents and continue "
                             "(default: stop at the first failure)")
    parser.add_argument("--stats", action="store_true",
                        help="print aggregated run statistics to stderr")
    parser.add_argument("--metrics", action="store_true",
                        help="print a Prometheus-style snapshot of the "
                             "repro_parallel_* metrics to stderr")
    return parser


def _bulk_sources(args) -> list:
    sources = list(args.files)
    if args.sources_from is not None:
        if args.sources_from == "-":
            listing = sys.stdin.read()
        else:
            with open(args.sources_from, "r", encoding="utf-8") as handle:
                listing = handle.read()
        for line in listing.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                sources.append(line)
    return sources


def bulk_main(argv=None) -> int:
    """The ``xsq bulk`` / ``repro bulk`` subcommand."""
    from repro.parallel import DEFAULT_CHUNK_SIZE, run_bulk

    # Intermixed parsing: flags may appear between/after the file list
    # (``xsq bulk Q a.xml b.xml --workers 8`` and ``xsq bulk Q
    # --workers 8 a.xml b.xml`` both work).
    args = build_bulk_parser().parse_intermixed_args(argv)
    if args.queries_file is not None:
        with open(args.queries_file, "r", encoding="utf-8") as handle:
            queries = [line.strip() for line in handle
                       if line.strip() and not line.lstrip().startswith("#")]
        if not queries:
            print("xsq: error: %s contains no queries" % args.queries_file,
                  file=sys.stderr)
            return 2
        spec = queries
        # The query positional is actually the first file when the
        # queries come from a file (the positional slots shift).
        if args.query is not None:
            args.files.insert(0, args.query)
    elif args.query is None:
        build_bulk_parser().error(
            "a query (or --queries-file) is required")
    else:
        spec = args.query
        queries = None
    sources = _bulk_sources(args)
    if not sources:
        build_bulk_parser().error(
            "at least one source file (or --sources-from) is required")
    obs = None
    if args.metrics:
        from repro.obs import Observability
        obs = Observability(spans=False, events=False)
    try:
        bulk = run_bulk(
            spec, sources, workers=args.workers, engine=args.engine,
            chunk_size=(args.chunk_docs if args.chunk_docs
                        else DEFAULT_CHUNK_SIZE),
            obs=obs, on_error="skip" if args.keep_going else "raise")
        failed = 0
        for document in bulk:
            if document.error is not None:
                failed += 1
                print("# %s FAILED: %s: %s"
                      % (document.source, document.error.exc_type,
                         document.error.message), file=sys.stderr)
                continue
            if queries is None:
                print("# %s (%d results)"
                      % (document.source, len(document.results)))
                for value in document.results:
                    print(value)
            else:
                print("# %s" % document.source)
                for query, values in zip(queries, document.results):
                    print("## %s (%d results)" % (query, len(values)))
                    for value in values:
                        print(value)
        if args.stats:
            print("# documents=%d workers=%s %s"
                  % (bulk.documents,
                     ",".join("%d:%d" % (wid, summary.get("docs", 0))
                              for wid, summary
                              in sorted(bulk.worker_stats.items())),
                     bulk.stats), file=sys.stderr)
        if obs is not None:
            print(obs.metrics_text(), end="", file=sys.stderr)
        return 1 if failed else 0
    except ReproError as exc:
        return _report_error(exc)


def top_main(argv=None) -> int:
    """The ``xsq top`` / ``repro top`` subcommand."""
    from repro.api import select_engine
    from repro.obs import Observability, format_top
    from repro.streaming.sax_source import parse_events

    args = build_top_parser().parse_args(argv)
    try:
        # Events stay off: top must run in bounded memory on unbounded
        # streams; the accountant (and auditor) don't need the trace.
        obs = Observability(spans=False, events=False,
                            accounting=True, audit=args.audit)
        engine = select_engine(args.query, args.engine, obs=obs)
        source = args.file if args.file is not None else _stdin_source()
        refresh = max(1, args.refresh_events)
        clear = (not args.no_clear) and sys.stdout.isatty()

        def render() -> None:
            # One snapshot (taken under the accountant's lock), one
            # write: metric updates arriving mid-refresh can neither
            # tear a row nor interleave two redraws in --no-clear mode.
            table = format_top(obs.snapshot())
            prefix = "\x1b[2J\x1b[H" if clear else ""
            sys.stdout.write(prefix + table + "\n")
            sys.stdout.flush()

        def ticking(events):
            for count, event in enumerate(events, 1):
                yield event
                if count % refresh == 0:
                    render()

        results = engine.run(ticking(parse_events(source)))
        render()
        print("# results (%d)" % len(results))
        if args.results:
            for value in results:
                print(value)
        auditor = obs.auditor
        if auditor is not None:
            print(auditor.report())
            if not auditor.ok:
                return 1
        return 0
    except ReproError as exc:
        return _report_error(exc)


def trace_main(argv=None) -> int:
    """The ``xsq trace`` / ``repro trace`` subcommand."""
    from repro.api import select_engine
    from repro.obs import Observability

    args = build_trace_parser().parse_args(argv)
    try:
        obs = Observability()
        dtd = None
        if args.dtd:
            from repro.streaming.dtd import parse_dtd
            with open(args.dtd, "r", encoding="utf-8") as dtd_file:
                dtd = parse_dtd(dtd_file.read())
        # A union traces through the grouped engine (one pass, shared
        # dispatch); --explain then prints the dispatch-index shape
        # beside each member HPDT.
        engine = select_engine(args.query, args.engine, obs=obs,
                               schema=dtd)
        source = args.file if args.file is not None else _stdin_source()
        results = engine.run(source)
        print("# results (%d)" % len(results))
        for value in results:
            print(value)
        if args.explain and hasattr(engine, "explain"):
            print()
            print("# compiled HPDT")
            print(engine.explain())
            if dtd is not None:
                from repro.xsq import schema_opt
                try:
                    plan = schema_opt.optimize(dtd, args.query)
                except ReproError:
                    plan = None  # e.g. a union string; members were
                    # planned individually by select_engine
                if plan is not None:
                    print()
                    print("# schema plan")
                    print(plan.describe())
        print()
        print("# buffer journeys")
        if obs.events is not None and getattr(engine, "obs", None) is obs:
            print(obs.events.explain())
        else:
            print("(no trace: the rewrite proved the query empty)")
        if args.flame:
            print()
            print("# spans")
            print(obs.flame())
        if args.metrics:
            print()
            print("# metrics")
            print(obs.metrics_text(), end="")
        if args.jsonl is not None:
            if args.jsonl == "-":
                obs.write_jsonl(sys.stdout)
            else:
                try:
                    lines = obs.write_jsonl(args.jsonl)
                except OSError as exc:
                    print("xsq: error: cannot write %s: %s"
                          % (args.jsonl, exc.strerror or exc),
                          file=sys.stderr)
                    return 2
                print("wrote %d JSONL lines to %s" % (lines, args.jsonl),
                      file=sys.stderr)
        return 0
    except ReproError as exc:
        return _report_error(exc)


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq profile",
        description="EXPLAIN ANALYZE for a streaming run: attribute "
                    "wall time per phase (parse, automaton, predicate, "
                    "buffer, output) and per hot entity (HPDT state, "
                    "tag, query in a set), reproducing the paper's "
                    "Fig 18 phase breakdown from live attribution.")
    parser.add_argument("query", help="XPath query (unions run grouped)")
    parser.add_argument("file", nargs="?", default=None,
                        help="XML file to query (default: stdin)")
    parser.add_argument("--engine", choices=("f", "nc", "fast", "auto"),
                        default="auto",
                        help="f = XSQ-F, nc = XSQ-NC, fast = compiled "
                             "fast path, auto = fast when possible, "
                             "else nc, else f")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")
    parser.add_argument("--folded", action="store_true",
                        help="print folded stacks (flamegraph input) "
                             "instead of the table")
    parser.add_argument("--fig18", action="store_true",
                        help="print the paper's Fig 18 parse/automaton/"
                             "buffer percentage split")
    parser.add_argument("--compare", choices=("f", "nc", "fast"),
                        default=None, metavar="ENGINE",
                        help="differential mode: profile a second run "
                             "on ENGINE and print the phase-by-phase "
                             "delta (stdin input is not replayable; "
                             "needs a FILE)")
    parser.add_argument("--sample-interval", type=int, default=None,
                        metavar="N",
                        help="fast path: per-event attribution on every "
                             "N-th batch (default: 64; 1 = every batch)")
    parser.add_argument("--top", type=int, default=8, metavar="N",
                        help="rows per hot-entity table (default: 8)")
    return parser


def profile_main(argv=None) -> int:
    """The ``xsq profile`` / ``repro profile`` subcommand."""
    import json as json_mod

    from repro.obs.profile import DEFAULT_SAMPLE_INTERVAL, profile_query

    args = build_profile_parser().parse_args(argv)
    if args.compare is not None and args.file is None:
        build_profile_parser().error(
            "--compare re-runs the stream and cannot replay stdin; "
            "pass a FILE")
    interval = (args.sample_interval if args.sample_interval
                else DEFAULT_SAMPLE_INTERVAL)
    try:
        source = args.file if args.file is not None else _stdin_source()
        report = profile_query(args.query, source, engine=args.engine,
                               sample_interval=interval)
        if args.json:
            print(json_mod.dumps(report.as_dict(), sort_keys=True,
                                 indent=2))
        elif args.folded:
            print(report.folded())
        else:
            print(report.render(top=args.top))
        if args.fig18:
            print()
            print(report.render_fig18())
        if args.compare is not None:
            other = profile_query(args.query, args.file,
                                  engine=args.compare,
                                  sample_interval=interval)
            print()
            print(report.diff(other))
        return 0
    except ReproError as exc:
        return _report_error(exc)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq serve-metrics",
        description="Run a query with the resource accountant attached "
                    "and serve /metrics (Prometheus text), /healthz and "
                    "/snapshot over HTTP while the stream processes — "
                    "and afterwards, until --duration elapses (or "
                    "forever without it).")
    parser.add_argument("query", help="XPath query (unions run grouped)")
    parser.add_argument("file", nargs="?", default=None,
                        help="XML file to query (default: stdin)")
    parser.add_argument("--engine", choices=("f", "nc", "fast", "auto"),
                        default="auto",
                        help="f = XSQ-F, nc = XSQ-NC, fast = compiled "
                             "fast path, auto = fast when possible, "
                             "else nc, else f")
    parser.add_argument("--port", type=int, default=0, metavar="PORT",
                        help="TCP port to bind (default: 0 = ephemeral; "
                             "the bound port is printed to stderr)")
    parser.add_argument("--host", default="127.0.0.1", metavar="HOST",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--audit", action="store_true",
                        help="also run the necessary-buffering auditor")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="keep serving this long after the run "
                             "completes, then exit (default: serve "
                             "until interrupted)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress query results on stdout")
    return parser


def serve_main(argv=None) -> int:
    """The ``xsq serve-metrics`` / ``repro serve-metrics`` subcommand."""
    import time

    from repro.api import select_engine
    from repro.obs import Observability

    args = build_serve_parser().parse_args(argv)
    try:
        # Accounting on so /snapshot carries the xsq top payload;
        # events off so unbounded streams run in bounded memory.
        obs = Observability(spans=False, events=False, accounting=True,
                            audit=args.audit)
        server = obs.serve(port=args.port, host=args.host)
        print("serving metrics on %s (routes: /metrics /healthz "
              "/snapshot)" % server.url, file=sys.stderr)
        engine = select_engine(args.query, args.engine, obs=obs)
        source = args.file if args.file is not None else _stdin_source()
        results = engine.run(source)
        if not args.quiet:
            for value in results:
                print(value)
        print("# results (%d); serving%s" %
              (len(results),
               " for %gs" % args.duration if args.duration is not None
               else " until interrupted (Ctrl-C to exit)"),
              file=sys.stderr)
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
        return 0
    except ReproError as exc:
        return _report_error(exc)


def build_push_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq serve",
        description="Run the XSQ subscription server: persistent XPath "
                    "subscriptions registered hot over a JSON-lines TCP "
                    "protocol, documents pushed in as chunks, and "
                    "results fanned out to each subscription's owner "
                    "the moment the buffering discipline determines "
                    "them.")
    parser.add_argument("--host", default="127.0.0.1", metavar="HOST",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0, metavar="PORT",
                        help="TCP port (default: 0 = ephemeral; the "
                             "bound port is announced as a JSON line "
                             "on stdout)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="also serve /metrics, /healthz and "
                             "/snapshot over HTTP on this port "
                             "(0 = ephemeral)")
    parser.add_argument("--max-subs-per-tenant", type=int, default=None,
                        metavar="N",
                        help="per-tenant standing-query quota "
                             "(default: unlimited)")
    parser.add_argument("--queue-size", type=int, default=None, metavar="N",
                        help="outbound results buffered per connection "
                             "before the overflow policy applies "
                             "(default: 256)")
    parser.add_argument("--overflow", choices=("block", "drop"),
                        default="block",
                        help="slow-subscriber policy: block = end-to-end "
                             "backpressure (default), drop = shed and "
                             "count")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="write flight-recorder dumps (SIGUSR2, "
                             "unhandled op crash) as JSON files into "
                             "this directory")
    return parser


def push_serve_main(argv=None) -> int:
    """The ``xsq serve`` / ``repro serve`` subcommand."""
    import asyncio
    import json as json_mod

    from repro.serve import DEFAULT_QUEUE_SIZE
    from repro.serve import serve as serve_coro

    args = build_push_serve_parser().parse_args(argv)

    def announce(server, metrics_server) -> None:
        # One machine-readable line so scripts can discover an
        # ephemeral port (the serve-smoke CI job does exactly this).
        line = {"event": "listening", "host": server.host,
                "port": server.port}
        if metrics_server is not None:
            line["metrics"] = metrics_server.url
        print(json_mod.dumps(line), flush=True)
        print("xsq serve: listening on %s:%d (Ctrl-C to exit)"
              % (server.host, server.port), file=sys.stderr)

    try:
        asyncio.run(serve_coro(
            args.host, args.port,
            metrics_port=args.metrics_port,
            queue_size=(args.queue_size if args.queue_size
                        else DEFAULT_QUEUE_SIZE),
            overflow=args.overflow,
            max_subscriptions_per_tenant=args.max_subs_per_tenant,
            flight_dir=args.flight_dir,
            announce=announce))
    except KeyboardInterrupt:
        print("xsq serve: interrupted; shut down cleanly",
              file=sys.stderr)
    except OSError as exc:
        print("xsq: error: cannot bind %s:%d: %s"
              % (args.host, args.port, exc.strerror or exc),
              file=sys.stderr)
        return 2
    except ReproError as exc:
        return _report_error(exc)
    return 0


def build_flight_dump_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsq flight-dump",
        description="Pull a running `xsq serve` instance's flight "
                    "recorder — the bounded ring of recent structured "
                    "events (connects, document completions, drops, "
                    "quota rejections, errors) — as a JSON snapshot, "
                    "via the JSONL protocol's `dump` op.")
    parser.add_argument("--host", default="127.0.0.1", metavar="HOST",
                        help="server address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, required=True, metavar="PORT",
                        help="server TCP port")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the snapshot to FILE instead of "
                             "stdout")
    parser.add_argument("--timeout", type=float, default=5.0,
                        metavar="SECONDS",
                        help="socket timeout (default: 5)")
    return parser


def flight_dump_main(argv=None) -> int:
    """The ``xsq flight-dump`` / ``repro flight-dump`` subcommand."""
    import json as json_mod
    import socket

    args = build_flight_dump_parser().parse_args(argv)
    try:
        with socket.create_connection((args.host, args.port),
                                      timeout=args.timeout) as sock:
            sock.sendall(json_mod.dumps({"op": "dump"}).encode() + b"\n")
            reader = sock.makefile("r", encoding="utf-8")
            # The server may interleave other frames (e.g. the hello
            # banner); read until the dump reply arrives.
            for line in reader:
                reply = json_mod.loads(line)
                if reply.get("op") != "dump":
                    continue
                if not reply.get("ok"):
                    print("xsq: error: %s" % reply.get("error", "dump "
                          "rejected"), file=sys.stderr)
                    return 2
                snapshot = reply["flight"]
                body = json_mod.dumps(snapshot, indent=2,
                                      sort_keys=True) + "\n"
                if args.out:
                    with open(args.out, "w", encoding="utf-8") as handle:
                        handle.write(body)
                    print("xsq flight-dump: wrote %d events to %s"
                          % (len(snapshot.get("events", [])), args.out),
                          file=sys.stderr)
                else:
                    sys.stdout.write(body)
                return 0
    except (OSError, ValueError) as exc:
        print("xsq: error: flight dump from %s:%d failed: %s"
              % (args.host, args.port, exc), file=sys.stderr)
        return 2
    print("xsq: error: server closed the connection before replying",
          file=sys.stderr)
    return 2


def _stdin_source():
    """stdin as a query source — unless it is an interactive terminal.

    Every pull-mode subcommand defaults FILE to stdin; invoked from a
    terminal with nothing piped in, that used to hang waiting for input
    (then die in the parser on Ctrl-D).  Fail fast with the push-mode
    alternatives instead.
    """
    if sys.stdin.isatty():
        raise ReproError(
            "stdin is a terminal and no FILE was given; pipe a document "
            "in, pass a FILE, or push chunks incrementally instead "
            "(`xsq serve`, or CompiledQuery.feed() from Python)")
    return sys.stdin


def _report_error(exc: ReproError) -> int:
    print("xsq: error: %s" % exc, file=sys.stderr)
    position = getattr(exc, "position", None)
    query = getattr(exc, "query", None)
    if query is not None and position is not None:
        # Point at the offending character, grep-style.
        print("  %s" % query, file=sys.stderr)
        print("  %s^" % (" " * position), file=sys.stderr)
    return 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Downstream (e.g. ``| head``) closed the pipe; not an error.
        # Re-point stdout at devnull so the interpreter's shutdown
        # flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(argv) -> int:
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "top":
        return top_main(argv[1:])
    if argv and argv[0] == "bulk":
        return bulk_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "serve-metrics":
        return serve_main(argv[1:])
    if argv and argv[0] == "serve":
        return push_serve_main(argv[1:])
    if argv and argv[0] == "flight-dump":
        return flight_dump_main(argv[1:])
    from repro.api import select_engine
    args = build_parser().parse_args(argv)
    try:
        if args.queries_file is not None:
            return _run_queries_file(args)
        if args.query is None:
            build_parser().error("a query (or --queries-file) is required")
        # The DTD parses before engine selection: it is both a stream
        # validator and an optimizer input (schema-aware compilation).
        dtd = None
        if args.dtd:
            from repro.streaming.dtd import parse_dtd
            with open(args.dtd, "r", encoding="utf-8") as dtd_file:
                dtd = parse_dtd(dtd_file.read())
        if args.explain or args.dot:
            if dtd is not None and not args.dot:
                engine = select_engine(args.query, args.engine, schema=dtd)
                print(engine.explain())
                return 0
            hpdt = Hpdt(args.query)
            print(hpdt.to_dot() if args.dot else hpdt.describe())
            return 0
        engine = select_engine(args.query, args.engine, schema=dtd)
        source = args.file if args.file is not None else _stdin_source()
        if dtd is not None or args.check:
            # Compose validators into the same single pass the engine
            # reads: events flow parser -> PDA -> DTD validator -> HPDT.
            from repro.streaming.sax_source import parse_events
            events = parse_events(source)
            if args.check:
                from repro.streaming.wellformed import WellFormednessPDA
                events = WellFormednessPDA().checked(events)
            if dtd is not None:
                from repro.streaming.dtd import StreamingValidator
                events = StreamingValidator(dtd).checked(events)
            source = events
        values = (engine.iter_results(source) if args.streaming
                  else engine.run(source))
        from repro.output import ResultWriter
        from repro.xpath.ast import ElementOutput
        query = getattr(engine, "query", None)
        markup = query is not None and isinstance(query.output,
                                                  ElementOutput)
        with ResultWriter(sys.stdout, args.format,
                          values_are_markup=markup) as writer:
            writer.write_all(values)
        if args.stats and engine.stats is not None:
            print("# engine=%s %s" % (engine.name, engine.stats),
                  file=sys.stderr)
        return 0
    except ReproError as exc:
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
