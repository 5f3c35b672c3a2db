"""Shared event-dispatch index for grouped multi-query execution.

The paper's Section 5 observation — "multiple HPDTs can be grouped
using methods suggested by [YFilter]" — is only half the win.  Sharing
the parse makes N queries cost one tokenization pass, but the seed
``MultiQueryEngine`` still fed every SAX event to every compiled HPDT:
O(N) automaton work per event.  This module removes that factor the way
YFilter's shared NFA does: transitions from all registered queries are
factored into one tag-keyed table, so a ``B``/``T``/``E`` event touches
only the machines that can actually fire on it.

The index classifies each registered query by its *tag interest*
(:meth:`repro.xsq.hpdt.Hpdt.tag_interest`):

* queries naming concrete tags land in per-tag **buckets** — the query
  is routed an event only when the event's tag is one it names
  (as a node test, a predicate child, or a path-predicate component);
* queries with a ``*`` node test anywhere, and queries whose output is
  a serialized element (which must observe every event inside a match),
  land in the **greedy** bucket and are routed everything — the
  YFilter ``*``-bucket, generalized.

Closure (``//``) self-loops need no separate bucket: a skipped event
can only *propagate* closure contexts unchanged, never consume them, so
the runtime reconstructs the propagation lazily when the next relevant
event arrives (see ``MatcherRuntime`` sparse-mode handling — skipped
subtrees collapse to the idempotent "descendant survivors" filter).
The closure kernels of :class:`~repro.xsq.fastpath.ClosurePlan` rely on
the same fact: a skipped element matches no step, so comparing depths
with the nearest element they were fed tells a child from a deeper
descendant.

The same rule decides *parser projection*: when no registered query
needs every tag (:func:`needs_every_tag`), the tags the index names
are all the stream a run can react to.  A plan lowered alone
(:func:`repro.xsq.fastpath.compile_fastplan`) and a query group with
no greedy member (:class:`repro.xsq.multiquery.MultiQueryEngine`) then
close their :class:`~repro.xsq.fastpath.TagTable`, and the batch
parsers build no tuple for any other tag; they only count it, so
``RunStats.events`` stays the full stream length.  A query that needs
every tag keeps its table open, and its tuple stream is the full one.

Routing is resolved once at registration: ``routes[tag]`` is the merged
(bucket ∪ greedy) tuple of query indices, and ``default`` (the greedy
tuple alone) serves every tag no query names.  Per event the driver
does one dict lookup, which is what keeps per-event cost independent of
the number of registered queries — the property Muñoz & Riveros prove
matters for streaming enumeration at scale.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.xpath.ast import ElementOutput
from repro.xsq.hpdt import Hpdt


def needs_every_tag(hpdt: Hpdt) -> Tuple[str, ...]:
    """Why a run of ``hpdt`` must see events of tags it does not name.

    ``("element output",)`` when the output serializes whole subtrees,
    ``("wildcard",)`` when a node test or predicate child is ``*``,
    both, or ``()`` when no event outside
    :meth:`~repro.xsq.hpdt.Hpdt.tag_interest` can matter.  The dispatch
    index routes such a query every event (the greedy bucket), and a
    plan lowered for it keeps its tag table open.

    >>> needs_every_tag(Hpdt("/pub[year>2000]/book/name/text()"))
    ()
    >>> needs_every_tag(Hpdt("//pub/*"))
    ('element output', 'wildcard')
    """
    reasons = []
    if isinstance(hpdt.query.output, ElementOutput):
        reasons.append("element output")
    if hpdt.tag_interest()[1]:
        reasons.append("wildcard")
    return tuple(reasons)


def projection_note(hpdt: Hpdt, kept: int) -> str:
    """The ``parser projection:`` line of ``explain()``: how many tags a
    run of ``hpdt`` keeps (``kept``, its closed table's size), or why it
    keeps them all."""
    reasons = needs_every_tag(hpdt)
    if reasons:
        return "parser projection: none (%s)" % ", ".join(reasons)
    return "parser projection: keeps %d tags" % kept


class DispatchIndex:
    """Tag-keyed routing table over N compiled HPDTs.

    >>> index = DispatchIndex([Hpdt("/pub/book/name/text()"),
    ...                        Hpdt("/pub/year/text()"),
    ...                        Hpdt("//*[@id]/text()")])
    >>> index.route("name")     # query 0 names it; query 2 is greedy
    (0, 2)
    >>> index.route("year")
    (1, 2)
    >>> index.route("unknown")  # only the greedy bucket
    (2,)
    """

    def __init__(self, hpdts: Sequence[Hpdt]):
        greedy = []
        buckets: Dict[str, list] = {}
        for index, hpdt in enumerate(hpdts):
            if needs_every_tag(hpdt):
                greedy.append(index)
                continue
            tags, _wildcard = hpdt.tag_interest()
            for tag in tags:
                buckets.setdefault(tag, []).append(index)
        self.query_count = len(hpdts)
        self.default: Tuple[int, ...] = tuple(greedy)
        self.routes: Dict[str, Tuple[int, ...]] = {
            tag: tuple(sorted(set(members).union(greedy)))
            for tag, members in buckets.items()}

    def route(self, tag: str) -> Tuple[int, ...]:
        """Indices of the queries that must see events for ``tag``."""
        return self.routes.get(tag, self.default)

    def id_routes(self, tags) -> Tuple[Dict[int, Tuple[int, ...]],
                                       Tuple[int, ...]]:
        """The routing table re-keyed by interned tag id.

        ``tags`` is the shared :class:`repro.xsq.fastpath.TagTable` the
        batched parsers stamp events with; the group session
        routes on ``event[1]`` (an int) instead of a tag string, so the
        per-event lookup skips string hashing entirely.  Interning here
        also pre-registers every bucketed tag, keeping ids stable no
        matter which tag the stream mentions first.
        """
        return ({tags.intern(tag): members
                 for tag, members in self.routes.items()},
                self.default)

    # -- introspection ----------------------------------------------------

    @property
    def bucket_count(self) -> int:
        """Distinct element tags with at least one registered query."""
        return len(self.routes)

    @property
    def greedy_count(self) -> int:
        """Queries routed every event (wildcards, element outputs)."""
        return len(self.default)

    @property
    def max_bucket_size(self) -> int:
        """Largest per-tag fanout (including greedy members)."""
        if not self.routes:
            return len(self.default)
        return max(len(members) for members in self.routes.values())

    def stats(self) -> Dict[str, float]:
        """Index shape summary, exported as gauges by the engine."""
        sizes = [len(members) for members in self.routes.values()]
        return {
            "queries": self.query_count,
            "buckets": self.bucket_count,
            "greedy": self.greedy_count,
            "max_bucket": self.max_bucket_size,
            "mean_bucket": (sum(sizes) / len(sizes)) if sizes else
                           float(len(self.default)),
        }

    def describe(self) -> str:
        """Human-readable dump of the routing table."""
        lines = ["DispatchIndex: %d queries, %d tag buckets, %d greedy"
                 % (self.query_count, self.bucket_count, self.greedy_count)]
        for tag in sorted(self.routes):
            lines.append("  <%s> -> %s" % (tag, list(self.routes[tag])))
        if self.default:
            lines.append("  <*> -> %s" % (list(self.default),))
        return "\n".join(lines)

    def __repr__(self):
        return ("<DispatchIndex %d queries, %d buckets, %d greedy>"
                % (self.query_count, self.bucket_count, self.greedy_count))
