"""``serve``: ``xsq serve`` in its own process, driven over loopback.

Broker routing, the grouped multi-query runtime, the event push parser
and the outbox/socket path do almost all the work; the codegen kernel
does none.  One load-generator process holds two connections:

* a *subscriber* with 32 standing queries over 12 distinct texts (some
  exact duplicates, some distinct; child-axis queries ``auto`` would
  run on the codegen tier and closure queries it would run on XSQ-F),
  which also *churns*: every ``CHURN_EVERY`` documents it drops one
  subscription and registers the same query again, so the server
  rebuilds its grouped engine — writes beside reads;
* a *feeder* that sends documents of a few KB as 256-byte chunks, first
  open-loop at a fixed offered rate (latency timed from each document's
  due time, so a stall shows in latency, not in a slowed sender), then
  closed-loop with ``WINDOW`` documents outstanding, which measures
  capacity.

A document is complete when the subscriber has read every one of its
results.  Results arrive in order, so each is attributed to its
document by the oracle's per-document counts.  Before a churn the
generator waits for every sent document to complete: a subscription
dropped mid-document would lose that document's results by design.

The server runs pinned to one CPU and the generator to another, for
half the run.  In the other half the same churn and documents are
replayed in-process against ``SubscriptionBroker`` (the broker's
library form) with the 32 subscriptions and with the 12 distinct
queries, each document timed against the parse floor over it; these
replays give the end-to-end metrics, and the socket figures go to the
per-layer metrics and the detail (see ``perfbench/README.md`` for
why).  A traced replay pass gives the per-layer ledger.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
from collections import deque

from perfbench import inputs, ledger
from perfbench.common import (Tally, census, compare_results, expat_floor,
                              floor_seconds, latency_summary, median,
                              peak_rss_mb, percentile, pinned, ratio)
from perfbench.trace import Patches, Tracer, install_layer_spans, \
    self_times, total_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST = "127.0.0.1"
POOL_DOCS = 200
CHUNK = 256
CHURN_EVERY = 20
WINDOW = 4
#: Set-ups timed before the socket phase, and again after the replays.
SETUP_REPS = 5
#: Offered open-loop rate, documents per second: a quarter or less of
#: what the closed loop completes on the code this benchmark was
#: written against (150-300 docs/s), so queueing stays short.  A
#: constant, so a faster server shows as lower latency.
OFFERED_RATE = 40.0
#: Share of ``--seconds`` spent open-loop; the rest is closed-loop.
OPEN_SHARE = 0.6
#: Seconds a phase may wait for outstanding documents to complete.
DRAIN_TIMEOUT = 20.0
#: Share of ``--seconds`` spent on the server over sockets; the rest
#: replays the documents in-process.
SOCKET_SHARE = 0.5


def distinct_queries():
    return [q for family in inputs.FAMILIES
            for q in inputs.SMALL_DOC_QUERIES[family]]


def subscription_texts():
    """32 subscriptions: every distinct query twice, 8 a third time."""
    queries = distinct_queries()
    return queries + queries + queries[:8]


def build(seed):
    docs = inputs.small_docs(POOL_DOCS, seed, low=2000, high=4000)
    blobs = []
    for _family, xml in docs:
        lines = [json.dumps({"op": "chunk", "data": c}, separators=(",", ":"))
                 for c in inputs.chunks(xml, CHUNK)]
        lines.append('{"op":"close"}')
        blobs.append(("\n".join(lines) + "\n").encode())
    return docs, blobs


def oracle(docs, queries):
    from repro.baselines.dom import build_dom, evaluate
    table = []
    for _family, xml in docs:
        dom = build_dom(xml)
        table.append({q: evaluate(dom, q) for q in queries})
    return table


class Doc:
    """One sent document: what it expects and what arrived."""

    __slots__ = ("pool", "expected", "total", "got", "count", "due",
                 "sent", "done", "ok")

    def __init__(self, pool, expected, due):
        self.pool = pool
        self.expected = expected          # {sid: [values]}
        self.total = sum(len(v) for v in expected.values())
        self.got = {}
        self.count = 0
        self.due = due
        self.sent = None
        self.done = None
        self.ok = True


class Generator:
    """The load generator's two connections and its bookkeeping."""

    def __init__(self, port, subs, table, blobs, tally):
        self.port = port
        self.texts = list(subs)
        self.table = table
        self.blobs = blobs
        self.tally = tally
        self.sid_query = {}
        self.active = []                  # sids, in registration order
        self.inflight = deque()           # sent, awaiting results
        self.unacked = deque()            # sent, awaiting close ack
        self.acks = deque()               # futures for subscriber acks
        self.feeder_acks = deque()        # futures for other feeder acks
        self.outstanding = 0
        self.changed = asyncio.Event()
        self.sequence = 0
        self.sent = []                    # every document, in send order
        self.tasks = []
        self.sub_w = self.feed_w = None

    async def connect(self):
        self.sub_r, self.sub_w = await asyncio.open_connection(
            HOST, self.port, limit=1 << 22)
        self.feed_r, self.feed_w = await asyncio.open_connection(
            HOST, self.port, limit=1 << 22)
        loop = asyncio.get_running_loop()
        self.tasks = [loop.create_task(self._read_subscriber()),
                      loop.create_task(self._read_feeder())]

    async def close(self):
        writers = [w for w in (self.sub_w, self.feed_w) if w is not None]
        for writer in writers:
            writer.close()
        for task in self.tasks:
            task.cancel()
        await asyncio.gather(*self.tasks, return_exceptions=True)
        for writer in writers:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # -- readers -------------------------------------------------------------

    async def _read_subscriber(self):
        reader = self.sub_r
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            if message.get("event") == "result":
                self._attribute(message["sub"], message["value"], now)
            elif "op" in message or "ok" in message:
                if self.acks:
                    self.acks.popleft().set_result(message)

    def _attribute(self, sid, value, now):
        inflight = self.inflight
        while inflight and inflight[0].total == 0:
            inflight.popleft()            # completes on its close ack
        if not inflight:
            self.tally.fail("result for %s matched no sent document" % sid)
            return
        doc = inflight[0]
        doc.got.setdefault(sid, []).append(value)
        doc.count += 1
        if doc.count == doc.total:
            inflight.popleft()
            self._complete(doc, now)

    async def _read_feeder(self):
        reader = self.feed_r
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            if message.get("op") == "close" and self.unacked:
                doc = self.unacked.popleft()
                if not message.get("ok"):
                    doc.ok = False
                    self.tally.fail("close refused: %s"
                                    % message.get("error"))
                if doc.total == 0 or not doc.ok:
                    self._complete(doc, now)
            elif self.feeder_acks:
                self.feeder_acks.popleft().set_result(message)

    def _complete(self, doc, now):
        if doc.done is None:
            doc.done = now
            self.outstanding -= 1
            self.changed.set()

    # -- ops -----------------------------------------------------------------

    async def _sub_call(self, op):
        future = asyncio.get_running_loop().create_future()
        self.acks.append(future)
        self.sub_w.write((json.dumps(op) + "\n").encode())
        await self.sub_w.drain()
        return await asyncio.wait_for(future, DRAIN_TIMEOUT)

    async def subscribe_all(self):
        futures = []
        loop = asyncio.get_running_loop()
        for text in self.texts:
            future = loop.create_future()
            self.acks.append(future)
            futures.append(future)
            self.sub_w.write((json.dumps({"op": "subscribe",
                                          "query": text}) + "\n").encode())
        await self.sub_w.drain()
        replies = await asyncio.wait_for(asyncio.gather(*futures),
                                         DRAIN_TIMEOUT)
        for text, reply in zip(self.texts, replies):
            if not reply.get("ok"):
                raise RuntimeError("subscribe refused: %r" % (reply,))
            self.sid_query[reply["sub"]] = text
            self.active.append(reply["sub"])

    async def open_first(self):
        future = asyncio.get_running_loop().create_future()
        self.feeder_acks.append(future)
        self.feed_w.write(b'{"op":"open"}\n')
        await self.feed_w.drain()
        reply = await asyncio.wait_for(future, DRAIN_TIMEOUT)
        if not reply.get("ok"):
            raise RuntimeError("open refused: %r" % (reply,))

    async def churn(self, k):
        """Drop one subscription and register its query again."""
        slot = k % len(self.active)
        old = self.active[slot]
        reply = await self._sub_call({"op": "unsubscribe", "sub": old})
        if not reply.get("removed"):
            self.tally.fail("unsubscribe %s refused: %r" % (old, reply))
        reply = await self._sub_call({"op": "subscribe",
                                      "query": self.sid_query[old]})
        if not reply.get("ok"):
            raise RuntimeError("resubscribe refused: %r" % (reply,))
        self.sid_query[reply["sub"]] = self.sid_query[old]
        self.active[slot] = reply["sub"]

    async def drain(self):
        """Wait until every sent document completed; raise on timeout."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        while self.outstanding > 0:
            self.changed.clear()
            await asyncio.wait_for(self.changed.wait(),
                                   max(0.0, deadline - time.perf_counter()))

    async def send(self, due):
        """Send the next document of the sequence (churning first when due)."""
        k = self.sequence
        if k and k % CHURN_EVERY == 0:
            await self.drain()
            await self.churn(k // CHURN_EVERY)
        pool = k % len(self.blobs)
        row = self.table[pool]
        doc = Doc(pool, {sid: row[self.sid_query[sid]]
                         for sid in self.active}, due)
        if due is not None:
            now = time.perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
        doc.sent = time.perf_counter()
        self.sent.append(doc)
        self.sequence += 1
        self.outstanding += 1
        self.inflight.append(doc)
        self.unacked.append(doc)
        self.feed_w.write(self.blobs[pool])
        await self.feed_w.drain()

    def check(self, docs):
        """Count each document as one operation against the oracle."""
        for doc in docs:
            if doc.done is None:
                self.tally.fail("document #%d never completed (%d of %d "
                                "results)" % (doc.pool, doc.count,
                                              doc.total))
                continue
            if not doc.ok:
                continue              # already counted when refused
            why = None
            for sid, want in doc.expected.items():
                why = compare_results(want, doc.got.get(sid, []))
                if why is not None:
                    why = "%s on doc #%d: %s" % (self.sid_query[sid],
                                                 doc.pool, why)
                    break
            if why is None and set(doc.got) - set(doc.expected):
                why = "results for unsubscribed ids on doc #%d" % doc.pool
            if why is None:
                self.tally.ok()
            else:
                self.tally.fail(why)


class Placement:
    """The server on one CPU, the load generator on another.

    Pinned, neither process migrates between CPUs whose speeds drift
    apart on a shared host, nor steals the other's CPU.  With a single
    CPU allowed, both share it.
    """

    def __init__(self):
        self.home = set(os.sched_getaffinity(0))
        cpus = sorted(self.home)
        self.server = {cpus[0]}
        self.generator = {cpus[-1]}

    def pin_server(self):
        os.sched_setaffinity(0, self.server)

    def pin_generator(self):
        os.sched_setaffinity(0, self.generator)

    def restore(self):
        os.sched_setaffinity(0, self.home)


def start_server(root, placement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=root, preexec_fn=placement.pin_server)
    ready, _, _ = select.select([proc.stdout], [], [], DRAIN_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    try:
        announce = json.loads(line)
    except ValueError:
        stop_server(proc)
        raise RuntimeError("xsq serve did not announce a port: %r" % line)
    return proc, announce["port"]


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


async def set_up(root, placement, table, blobs, tally):
    """Start the server, subscribe everything, open the first stream."""
    t0 = time.perf_counter()
    proc, port = start_server(root, placement)
    gen = Generator(port, subscription_texts(), table, blobs, tally)
    try:
        await gen.connect()
        await gen.subscribe_all()
        await gen.open_first()
    except BaseException:
        await gen.close()
        stop_server(proc)
        raise
    return time.perf_counter() - t0, proc, gen


async def time_setups(root, placement, table, blobs, tally, reps):
    """Seconds of ``reps`` set-ups, each torn down after it."""
    times = []
    for _ in range(reps):
        elapsed, proc, gen = await set_up(root, placement, table, blobs,
                                          tally)
        times.append(elapsed)
        await gen.close()
        stop_server(proc)
    return times


async def drive(root, placement, seconds, table, blobs, sizes, tally):
    """Set up, then one open-loop phase and one closed-loop phase."""
    setups = await time_setups(root, placement, table, blobs, tally,
                               SETUP_REPS - 1)
    elapsed, proc, gen = await set_up(root, placement, table, blobs, tally)
    setups.append(elapsed)
    split = None
    backlog = None
    t0 = None
    try:
        # Open loop: document i is due at start + i / OFFERED_RATE.
        n_open = max(1, int(seconds * OPEN_SHARE * OFFERED_RATE))
        start = time.perf_counter() + 0.05
        for i in range(n_open):
            await gen.send(start + i / OFFERED_RATE)
        phase_end = start + n_open / OFFERED_RATE
        if time.perf_counter() < phase_end:
            await asyncio.sleep(phase_end - time.perf_counter())
        backlog = gen.outstanding
        await gen.drain()
        # Closed loop: keep WINDOW documents outstanding.
        split = len(gen.sent)
        t0 = time.perf_counter()
        deadline = t0 + seconds * (1 - OPEN_SHARE)
        while time.perf_counter() < deadline:
            while gen.outstanding >= WINDOW:
                gen.changed.clear()
                await asyncio.wait_for(gen.changed.wait(), DRAIN_TIMEOUT)
            await gen.send(None)
        await gen.drain()
    except (OSError, asyncio.TimeoutError, RuntimeError) as exc:
        # Documents that never completed are counted by check() below.
        tally.fail("load generator stopped: %s: %s"
                   % (type(exc).__name__, exc))
    finally:
        await gen.close()
        stop_server(proc)
    open_docs = gen.sent[:split]
    closed_docs = gen.sent[split:] if split is not None else []
    gen.check(open_docs)
    gen.check(closed_docs)
    lat = [d.done - d.due for d in open_docs if d.done is not None]
    late = [d.sent - d.due for d in open_docs if d.sent is not None]
    done = [d for d in closed_docs if d.done is not None]
    wall = max(d.done for d in done) - t0 if done else 0.0
    return {
        "setups": setups,
        "latency": latency_summary(lat),
        "lateness_p50_ms": percentile(late, 50) * 1000.0 if late else None,
        "lateness_max_ms": max(late) * 1000.0 if late else None,
        "backlog_at_open_end": backlog,
        "open_docs": len(open_docs),
        "closed_docs": len(done),
        "closed_wall_s": wall,
        "closed_bytes": sum(sizes[d.pool] for d in done),
        "churns": gen.sequence // CHURN_EVERY,
    }


class Replay:
    """The socket run's churn and documents, in-process, for ``texts``.

    ``SubscriptionBroker`` is the broker's library form: the routing,
    grouped multi-query runtime and event push parser the server runs,
    without the socket and JSON.  Each document's output is checked
    against the oracle right after it is timed, so the replay holds no
    results: a growing heap would make every later collection dearer.
    """

    def __init__(self, docs, texts, table, tally):
        from repro.serve.broker import SubscriptionBroker
        self.chunked = [inputs.chunks(xml, CHUNK) for _, xml in docs]
        self.table = table
        self.tally = tally
        self.broker = SubscriptionBroker()
        self.active = [self.broker.subscribe(q) for q in texts]
        self.query_of = dict(zip(self.active, texts))
        self.sequence = 0
        self.results = 0

    def one_pass(self, blobs=None, slowdowns=None):
        """Every pool document once; returns (seconds, floor seconds).

        With ``blobs``, each document is preceded by the parse floor
        over it, and ``slowdowns`` gets each document's seconds (open
        to finish) over its floor's.
        """
        broker, active, query_of = self.broker, self.active, self.query_of
        spent = 0.0
        floors = 0.0
        for pool, chunks in enumerate(self.chunked):
            k = self.sequence
            if k and k % CHURN_EVERY == 0:
                slot = (k // CHURN_EVERY) % len(active)
                old = active[slot]
                broker.unsubscribe(old)
                active[slot] = broker.subscribe(query_of[old])
                query_of[active[slot]] = query_of[old]
            self.sequence += 1
            floor = floor_seconds(blobs[pool]) if blobs is not None else 0.0
            t0 = time.perf_counter()
            stream = broker.open_stream()
            out = []
            for chunk in chunks:
                out.extend(stream.feed(chunk))
            out.extend(stream.finish())
            elapsed = time.perf_counter() - t0
            spent += elapsed
            floors += floor
            if slowdowns is not None:
                slowdowns.append(elapsed / floor)
            self._check(pool, out)
        return spent, floors

    def _check(self, pool, out):
        self.results += len(out)
        got = {}
        for sid, value in out:
            got.setdefault(sid, []).append(value)
        why = None
        for sid in self.active:
            query = self.query_of[sid]
            why = compare_results(self.table[pool][query], got.pop(sid, []))
            if why is not None:
                why = "%s on doc #%d (in-process): %s" % (query, pool, why)
                break
        if why is None and got:
            why = "results for unknown ids on doc #%d" % pool
        if why is None:
            self.tally.ok()
        else:
            self.tally.fail(why)


def replay_rounds(docs, blobs, seconds, table, tally):
    """Alternate passes of the duplicated and the distinct set.

    Each set first makes one untimed pass, so every grouped engine and
    compiled query exists before timing.  Returns the relative
    throughput of each timed pass, per set, the seconds of each
    duplicated-set pass and every document's slowdown over its floor
    in the duplicated set.
    """
    dup = Replay(docs, subscription_texts(), table, tally)
    distinct = Replay(docs, distinct_queries(), table, tally)
    dup.one_pass()
    distinct.one_pass()
    gc.collect()
    rel = {"dup": [], "distinct": []}
    dup_seconds = []
    slowdowns = []
    deadline = time.perf_counter() + seconds
    while True:
        spent, floor = dup.one_pass(blobs, slowdowns)
        rel["dup"].append(floor / spent)
        dup_seconds.append(spent)
        spent, floor = distinct.one_pass(blobs)
        rel["distinct"].append(floor / spent)
        if time.perf_counter() >= deadline:
            break
    return rel, dup_seconds, slowdowns


def run(seed, seconds, trace, spans_path):
    from repro.api import select_engine
    from repro.xsq.compile_cache import clear_default_cache

    docs, blobs = build(seed)
    queries = distinct_queries()
    table = oracle(docs, queries)
    tally = Tally()
    xml_blobs = [xml.encode("utf-8") for _, xml in docs]
    sizes = [len(blob) for blob in xml_blobs]
    placement = Placement()
    placement.pin_generator()
    try:
        served = asyncio.run(drive(ROOT, placement, seconds * SOCKET_SHARE,
                                   table, blobs, sizes, tally))
    finally:
        placement.restore()
    server_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    with pinned():
        rel, dup_seconds, slowdowns = replay_rounds(
            docs, xml_blobs, seconds * (1 - SOCKET_SHARE), table, tally)
    # More set-ups at the end, so the samples span the run.
    placement.pin_generator()
    try:
        served["setups"] += asyncio.run(time_setups(
            ROOT, placement, table, blobs, tally, SETUP_REPS))
    finally:
        placement.restore()
    replay_s = median(dup_seconds)
    lat = served["latency"]
    serve_docs_per_s = ratio(served["closed_docs"], served["closed_wall_s"])
    e2e = {
        "setup_s": median(served["setups"]),
        "throughput_vs_floor": median(rel["dup"]),
        "alt_throughput_vs_floor": median(rel["distinct"]),
        "latency_p50_vs_floor": median(slowdowns),
        "peak_rss_mb": server_rss,
        "serve_docs_per_s": serve_docs_per_s,
        "serve_mb_per_s": ratio(served["closed_bytes"] / 1e6,
                                served["closed_wall_s"]),
        "serve_p50_ms": lat.get("p50_ms"),
        "replay_docs_per_s": len(docs) / replay_s,
        "replay_mb_per_s": sum(sizes) / 1e6 / replay_s,
    }
    texts = subscription_texts()
    detail = {
        "census": census([(q, select_engine(q)) for q in texts]),
        "note": "tiers are what engine='auto' picks for each "
                "subscription alone; the server runs them all on the "
                "grouped multi-query runtime",
        "subscriptions": len(texts), "distinct_queries": len(set(texts)),
        "offered_rate_docs_per_s": OFFERED_RATE, "window": WINDOW,
        "churn_every_docs": CHURN_EVERY, "chunk_bytes": CHUNK,
        "open_loop": {k: served[k] for k in (
            "lateness_p50_ms", "lateness_max_ms", "backlog_at_open_end",
            "open_docs")},
        "latency": lat,
        "closed_loop": {k: served[k] for k in (
            "closed_docs", "closed_wall_s", "closed_bytes")},
        "churns": served["churns"],
        "replay_passes": len(dup_seconds),
        "setup_samples_s": served["setups"],
    }
    result = {"e2e": e2e, "detail": detail, "tally": tally}

    if trace:
        tracer = Tracer()
        with Patches(tracer) as patches:
            install_layer_spans(patches)
            with tracer.span("streaming.expat_floor"):
                expat_floor(xml_blobs)
            # Subscribing compiles every query afresh, as the server's
            # set-up does.
            clear_default_cache()
            traced = Replay(docs, texts, table, tally)
            traced_s, _ = traced.one_pass()
        layers = ledger.from_spans(self_times(tracer.spans),
                                   total_times(tracer.spans))
        layers.update(ledger.tier_metrics(detail["census"]["tiers"]))
        layers.update({
            "serve.server.docs_per_s": serve_docs_per_s,
            "serve.server.p50_ms": lat.get("p50_ms"),
            "serve.server.overhead_s": (
                ratio(1.0, serve_docs_per_s)
                - ratio(1.0, e2e["replay_docs_per_s"])),
            "serve.subscriptions": len(texts),
            "serve.distinct_queries": len(set(texts)),
            "serve.results": traced.results,
            # The traced pass also builds the grouped engine the first
            # document opens, a few ms of a pass.
            "trace.overhead_ratio": traced_s / replay_s,
        })
        result["e2e_traced"] = {
            "replay_mb_per_s": sum(sizes) / 1e6 / traced_s}
        result["layers"] = layers
        tracer.dump(spans_path, {"workload": "serve", "seed": seed})
    return result
