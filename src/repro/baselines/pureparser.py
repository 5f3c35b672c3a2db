"""PureParser: parse the stream and do nothing else (Section 6.2).

"The throughput of a SAX parser, which parses the XML data but does
nothing else, gives an upper bound of the throughput for any XML query
system."  The paper wrote two PureParsers (C/Expat and Java/Xerces) and
normalized every engine's throughput against the matching one.  Here
the PureParser is the ``xml.sax`` event producer the interpreted
engines read (expat underneath); the bench harness divides engine
throughput by PureParser throughput to get the *relative throughput*
of Figures 16, 17, 21 and 22.
"""

from __future__ import annotations

from repro.streaming.sax_source import parse_events


class PureParser:
    """Parse-only baseline: ``xml.sax`` events, counted and dropped."""

    name = "pureparser"
    supports_predicates = False
    supports_closures = False
    supports_aggregates = False
    streaming = True

    def run(self, source) -> int:
        """Consume the whole stream; return the number of events."""
        count = 0
        for _ in parse_events(source):
            count += 1
        return count
