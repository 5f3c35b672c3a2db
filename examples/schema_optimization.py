"""Schema-aware streaming: validation and query optimization with a DTD.

Section 5 of the paper closes with: "Currently the XSQ system is
schema-unaware.  It is an interesting topic to automatically
incorporate schema information, if available, into the system for
optimization."  This example does exactly that:

1. validate the stream against a DTD on the fly (single pass, the
   pushdown-automaton validator of the work the paper cites);
2. let the optimizer rewrite queries using the schema — dropping
   guaranteed predicates, expanding closures into deterministic child
   paths, and answering impossible queries without reading the stream;
3. time the schema-aware compile (``repro.compile(q, schema=dtd)``)
   against the schema-unaware XSQ-F engine.

Run with::

    python examples/schema_optimization.py
"""

import time

import repro
from repro import StreamingValidator, XSQEngine, parse_dtd
from repro.datagen import generate_dblp
from repro.streaming.sax_source import parse_events
from repro.xsq.schema_opt import optimize

DTD = parse_dtd("""
    <!ELEMENT dblp (article | inproceedings)*>
    <!ELEMENT article (author*, title, journal?, volume?, year, pages,
                       url)>
    <!ELEMENT inproceedings (author*, title, booktitle, year, pages,
                             url)>
    <!ELEMENT author (#PCDATA)> <!ELEMENT title (#PCDATA)>
    <!ELEMENT journal (#PCDATA)> <!ELEMENT volume (#PCDATA)>
    <!ELEMENT year (#PCDATA)> <!ELEMENT pages (#PCDATA)>
    <!ELEMENT url (#PCDATA)> <!ELEMENT booktitle (#PCDATA)>
""", root="dblp")

QUERIES = [
    "//inproceedings//booktitle/text()",   # closures -> child paths
    "/dblp/article[title]/year/text()",    # guaranteed predicate
    "//article//booktitle/text()",         # statically empty
]


def main() -> None:
    print("generating bibliography data...")
    xml = generate_dblp(400_000)

    # 1. Streaming validation: one pass, constant memory.
    validator = StreamingValidator(DTD)
    for event in parse_events(xml):
        validator.feed(event)
    validator.finish()
    print("validated %d events against the DTD\n"
          % validator.events_validated)

    # 2 & 3. Plan, explain, and race each query.
    for query in QUERIES:
        print("query:", query)
        print("  " + optimize(DTD, query).describe().replace("\n", "\n  "))
        aware = repro.compile(query, schema=DTD)
        print("  engine: %s" % aware.engine_name)
        start = time.perf_counter()
        optimized = aware.run(xml)
        aware_s = time.perf_counter() - start
        start = time.perf_counter()
        plain = XSQEngine(query).run(xml)
        plain_s = time.perf_counter() - start
        assert optimized == plain, "optimization must not change results"
        speedup = plain_s / aware_s if aware_s else float("inf")
        print("  schema-aware %.4fs vs unaware %.4fs (%.1fx), "
              "%d results\n" % (aware_s, plain_s, speedup, len(plain)))


if __name__ == "__main__":
    main()
