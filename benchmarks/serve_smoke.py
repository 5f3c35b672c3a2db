#!/usr/bin/env python
"""serve-smoke: end-to-end gate for ``xsq serve``.

Starts the real CLI server as a subprocess on an ephemeral port,
registers N standing queries from N concurrent subscriber connections,
streams three documents one after another through a separate feeder
connection in small chunks (so the server's query group serves the
second and third on members reset from the first), and asserts that

* for each document, every subscriber receives exactly its own result
  (fan-out correctness under targeted predicates: subscription ``i``
  matches only item ``i``, whose value names the document),
* each document's close ack counts every result it delivered and the
  same event count as the others (the documents differ only in text),
* the ``/metrics`` endpoint scrapes cleanly and its
  ``repro_serve_*`` totals agree with all three documents (results,
  documents, chunks, bytes),
* every subscription shows a non-empty per-sub
  ``repro_serve_delivery_seconds`` histogram — the end-to-end latency
  provenance path stamped every delivered result.

Exit status 0 = pass.  Used by the ``serve-smoke`` CI job::

    PYTHONPATH=src python benchmarks/serve_smoke.py \
        --subscriptions 50 --chunk-size 16
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import urllib.request

HOST = "127.0.0.1"


DOCUMENTS = 3


def build_document(count: int, doc: int) -> str:
    items = "".join(
        "<item><id>%d</id><value>d%d-v%d</value></item>" % (i, doc, i)
        for i in range(count))
    return "<pub>%s</pub>" % items


def metric_total(text: str, name: str) -> float:
    """Sum of one series over all its label sets."""
    return sum(float(line.rsplit(None, 1)[1])
               for line in text.splitlines()
               if line.startswith(name + "{"))


async def open_client(port):
    reader, writer = await asyncio.open_connection(HOST, port)

    async def call(**op):
        writer.write((json.dumps(op) + "\n").encode())
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(),
                                                 timeout=30))

    return reader, writer, call


async def run_smoke(args) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--metrics-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env)
    try:
        announce = json.loads(proc.stdout.readline())
        port = announce["port"]
        metrics_url = announce["metrics"]
        print("server up on port %d, metrics at %s"
              % (port, metrics_url))

        # N subscribers, each owning one targeted standing query.
        subscribers = []
        for i in range(args.subscriptions):
            reader, writer, call = await open_client(port)
            hello = await call(op="hello", tenant="smoke-%d" % (i % 5))
            assert hello["ok"], hello
            sub = await call(op="subscribe",
                             query="/pub/item[id=%d]/value/text()" % i)
            assert sub["ok"], sub
            subscribers.append((reader, writer, sub["sub"], i))
        print("registered %d subscriptions" % len(subscribers))

        # One feeder streams the documents in small chunks; each close
        # ends one document and the next chunk opens the next.
        _, feeder_writer, feeder_call = await open_client(port)
        chunks = sent = 0
        events = []
        for doc in range(DOCUMENTS):
            document = build_document(args.subscriptions, doc)
            for offset in range(0, len(document), args.chunk_size):
                chunk = document[offset:offset + args.chunk_size]
                feeder_writer.write(
                    (json.dumps({"op": "chunk", "data": chunk}) + "\n")
                    .encode())
                chunks += 1
                sent += len(chunk)
            await feeder_writer.drain()
            closed = await feeder_call(op="close")
            assert closed["ok"], closed
            assert closed["results"] == args.subscriptions, (doc, closed)
            events.append(closed["events"])
            print("document %d streamed in %d-byte chunks; close ack: %s"
                  % (doc, args.chunk_size, closed))

            # Every subscriber got exactly its own value of this
            # document.
            for reader, writer, sid, i in subscribers:
                event = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=30))
                assert event == {"event": "result", "sub": sid,
                                 "value": "d%d-v%d" % (doc, i)}, (
                    doc, i, event)
            print("document %d: all %d subscribers received exactly "
                  "their own result" % (doc, len(subscribers)))
        assert events[0] > 0 and events == [events[0]] * DOCUMENTS, events
        for _, writer, _, _ in subscribers:
            writer.close()
        feeder_writer.close()

        # Metrics must scrape cleanly and agree with every document.
        text = urllib.request.urlopen(
            metrics_url + "/metrics", timeout=30).read().decode()
        assert "# TYPE repro_serve_results_total counter" in text, (
            text[:400])
        totals = {name: metric_total(text, "repro_serve_%s_total" % name)
                  for name in ("results", "documents", "chunks", "bytes")}
        expected = {"results": DOCUMENTS * args.subscriptions,
                    "documents": DOCUMENTS, "chunks": chunks, "bytes": sent}
        assert totals == expected, (totals, expected)
        assert "repro_serve_subscriptions" in text
        print("metrics scrape ok: %s" % ", ".join(
            "repro_serve_%s_total == %d" % (name, int(value))
            for name, value in totals.items()))

        # Per-subscription delivery-latency histograms: each delivered
        # result was stamped feed-entry -> socket-write.  Completion
        # happens just after the writer drains, so retry briefly.
        expected_subs = {sid for _, _, sid, _ in subscribers}
        seen = {}
        for _ in range(50):
            text = urllib.request.urlopen(
                metrics_url + "/metrics", timeout=30).read().decode()
            seen = {}
            for line in text.splitlines():
                if line.startswith("repro_serve_delivery_seconds_count{"):
                    labels, value = line.rsplit(None, 1)
                    sub = labels.split('sub="', 1)[1].split('"', 1)[0]
                    seen[sub] = seen.get(sub, 0.0) + float(value)
            if expected_subs <= set(seen) \
                    and all(seen[sid] >= DOCUMENTS
                            for sid in expected_subs):
                break
            await asyncio.sleep(0.1)
        else:
            raise AssertionError(
                "delivery histograms incomplete: %d of %d subscriptions "
                "tracked" % (len(seen), len(expected_subs)))
        print("delivery latency tracked for all %d subscriptions"
              % len(expected_subs))
        return 0
    finally:
        proc.terminate()
        proc.wait(timeout=30)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subscriptions", type=int, default=50,
                        metavar="N",
                        help="standing queries / subscriber connections "
                             "(default: 50)")
    parser.add_argument("--chunk-size", type=int, default=16, metavar="B",
                        help="feeder chunk size in characters "
                             "(default: 16)")
    args = parser.parse_args(argv)
    return asyncio.run(run_smoke(args))


if __name__ == "__main__":
    sys.exit(main())
