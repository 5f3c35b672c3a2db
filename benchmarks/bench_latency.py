#!/usr/bin/env python
"""End-to-end delivery latency of the subscription server.

Boots an in-process :class:`repro.serve.XsqServer` with the delivery
tracker attached, registers 1 / 10 / 50 subscribers on the same
standing query, streams a corpus of documents through a feeder
connection in small chunks, and reports the p50/p99/max of the
per-result delivery latency — feed-call entry to socket write, the full
provenance path :mod:`repro.obs.latency` stamps.  One more cell
registers 50 subscribers on 50 *distinct* queries that each select
every item, so a latency win cannot come from query deduplication
alone.

Everything runs on localhost loopback inside one asyncio loop, so the
numbers measure the serving pipeline (parse -> match -> dispatch ->
enqueue -> write), not network jitter.  Writes a schema-versioned
``BENCH_latency.json`` at the repo root; ``python -m repro.bench diff``
registers the artifact with lower-is-better direction for every metric.

``--check`` gates completeness (every expected result delivered and
latency-tracked) and sanity (percentiles positive, ordered, and under a
generous ceiling), not absolute speed — CI runners are too noisy for a
hard latency floor.

Usage::

    python benchmarks/bench_latency.py                   # full run
    python benchmarks/bench_latency.py --quick --check   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List

from repro.obs import Observability
from repro.serve import XsqServer

SCHEMA_VERSION = 1

SUBSCRIBER_COUNTS = [1, 10, 50]

#: Subscribers in the distinct-query cell, one query each.
DISTINCT_SUBSCRIBERS = 50

QUERY = "/pub/item/value/text()"


def distinct_query(index: int, items: int) -> str:
    """The ``index``-th distinct query; each selects every item."""
    return "/pub/item[id<%d]/value/text()" % (items + index)

#: p99 sanity ceiling under --check (seconds).  Loopback delivery is
#: tens of microseconds on an idle machine; a whole second means the
#: pipeline is broken, not slow.
CHECK_P99_CEILING = 1.0


def build_document(items: int) -> str:
    parts = ["<pub>"]
    for index in range(items):
        parts.append("<item><id>%d</id><value>v%d</value></item>"
                     % (index, index))
    parts.append("</pub>")
    return "".join(parts)


class _Client:
    """Minimal JSONL client against the in-process server."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        return cls(reader, writer)

    async def send(self, **op):
        self.writer.write((json.dumps(op) + "\n").encode())
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def call(self, **op):
        await self.send(**op)
        return await self.recv()

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def run_cell(subscribers: int, documents: int, items: int,
                   chunk_bytes: int,
                   distinct: bool = False) -> Dict[str, object]:
    obs = Observability(spans=False, events=False, recorder=True)
    server = XsqServer("127.0.0.1", 0, obs=obs)
    await server.start()
    subs: List[_Client] = []
    feeder = None
    queries = ([distinct_query(index, items) for index in range(subscribers)]
               if distinct else [QUERY] * subscribers)
    try:
        for query in queries:
            client = await _Client.connect(server)
            reply = await client.call(op="subscribe", query=query)
            assert reply.get("ok"), reply
            subs.append(client)
        feeder = await _Client.connect(server)

        document = build_document(items)
        chunks = [document[offset:offset + chunk_bytes]
                  for offset in range(0, len(document), chunk_bytes)]
        expected_per_sub = documents * items

        async def drain(client: _Client) -> int:
            received = 0
            while received < expected_per_sub:
                message = await client.recv()
                if message.get("event") == "result":
                    received += 1
            return received

        drains = [asyncio.create_task(drain(client)) for client in subs]
        for _ in range(documents):
            for chunk in chunks:
                await feeder.send(op="chunk", data=chunk)
            closed = await feeder.call(op="close")
            assert closed.get("ok"), closed
        await asyncio.wait_for(asyncio.gather(*drains), timeout=60)

        # Writer tasks complete timings asynchronously after the drain
        # reads them off the socket; give the loop a few turns.
        expected_total = expected_per_sub * subscribers
        for _ in range(100):
            if server.delivery.completed >= expected_total:
                break
            await asyncio.sleep(0.01)
        snapshot = server.delivery.snapshot()
    finally:
        for client in subs:
            await client.close()
        if feeder is not None:
            await feeder.close()
        await server.stop()

    return {
        "subscribers": subscribers,
        "distinct_queries": len(set(queries)),
        "documents": documents,
        "items_per_document": items,
        "expected_results": expected_total,
        "results": snapshot["completed"],
        "delivery_p50_seconds": round(snapshot["p50_seconds"], 7),
        "delivery_p99_seconds": round(snapshot["p99_seconds"], 7),
        "delivery_max_seconds": round(snapshot["max_seconds"], 7),
    }


def check_cell(cell: Dict[str, object]) -> List[str]:
    failures = []
    label = "subs=%s/distinct=%s" % (cell["subscribers"],
                                     cell["distinct_queries"])
    if cell["results"] != cell["expected_results"]:
        failures.append(
            "%s: %s results latency-tracked, expected %s"
            % (label, cell["results"], cell["expected_results"]))
    p50 = cell["delivery_p50_seconds"]
    p99 = cell["delivery_p99_seconds"]
    maximum = cell["delivery_max_seconds"]
    if not (0.0 < p50 <= p99 <= maximum):
        failures.append(
            "%s: percentiles not positive/ordered: p50=%s p99=%s max=%s"
            % (label, p50, p99, maximum))
    if p99 > CHECK_P99_CEILING:
        failures.append("%s: p99 %.4fs above the %.1fs sanity ceiling"
                        % (label, p99, CHECK_P99_CEILING))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--documents", type=int, default=40,
                        help="documents per subscriber count "
                             "(default %(default)s)")
    parser.add_argument("--items", type=int, default=25,
                        help="matching items per document "
                             "(default %(default)s)")
    parser.add_argument("--chunk-bytes", type=int, default=512,
                        help="feeder chunk size (default %(default)s)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer documents and subscriber counts "
                             "(CI smoke)")
    parser.add_argument("--out", default="BENCH_latency.json",
                        help="JSON artifact path (default %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any expected result is missing "
                             "from the latency track, or percentiles are "
                             "degenerate")
    args = parser.parse_args(argv)

    documents, items = args.documents, args.items
    cells = [(count, False) for count in SUBSCRIBER_COUNTS]
    cells.append((DISTINCT_SUBSCRIBERS, True))
    if args.quick:
        documents, items = 10, 10
        cells = [(1, False), (10, False), (10, True)]

    entries: List[Dict[str, object]] = []
    failures: List[str] = []
    for subscribers, distinct in cells:
        cell = asyncio.run(run_cell(subscribers, documents, items,
                                    args.chunk_bytes, distinct))
        entries.append(cell)
        print("subs=%-3d distinct=%-3d docs=%-3d  results=%-6d  "
              "p50=%8.1fus  p99=%8.1fus  max=%8.1fus"
              % (subscribers, cell["distinct_queries"], documents,
                 cell["results"],
                 cell["delivery_p50_seconds"] * 1e6,
                 cell["delivery_p99_seconds"] * 1e6,
                 cell["delivery_max_seconds"] * 1e6))
        failures.extend(check_cell(cell))

    artifact = {
        "bench": "latency",
        "schema_version": SCHEMA_VERSION,
        "documents": documents,
        "items_per_document": items,
        "chunk_bytes": args.chunk_bytes,
        "query": QUERY,
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
        print("checks passed: every result latency-tracked, "
              "percentiles positive and ordered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
