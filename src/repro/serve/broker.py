"""The subscription registry and fan-out core of ``xsq serve``.

The paper frames XSQ as a building block for *data dissemination*: many
standing queries, one pass over each arriving document.
:class:`SubscriptionBroker` is that shape as a long-lived service core,
independent of any transport:

* **persistent queries** — ``subscribe()`` / ``unsubscribe()`` register
  XPath subscriptions hot, per tenant, against configurable quotas.
* **each distinct query once** — subscriptions are grouped by
  canonical query text; the grouped engine (one shared
  :class:`~repro.xsq.dispatch.DispatchIndex`) holds one member per
  distinct text, and each member result fans out to every subscription
  holding that text.  The engine is rebuilt lazily, only when the set
  of distinct texts changed: a duplicate's subscribe or unsubscribe,
  or a churn that re-registers the same text, rebuilds just the
  fan-out table.  Members run on the fastest runtime they lower to
  (generated kernels for child-axis queries and predicate-free closure
  queries, XSQ-F's matcher for closures with predicates or element
  output and for ``not()``/``or()``/path predicates), all fed from
  one parse per chunk.
* **incremental documents** — :meth:`open_stream` starts one document;
  the returned :class:`BrokerStream` accepts raw chunks (``feed``) and
  returns ``(subscription_id, value)`` results the moment the paper's
  buffering discipline determines them — no EOF needed.  Each
  subscription's results arrive in document order, and every result a
  chunk determines is returned by that chunk's ``feed()``; the order
  across subscriptions within one call is not promised.
* **registry snapshots** — a stream binds the registry at open time;
  subscriptions added mid-document take effect from the next document,
  so every document is evaluated against one consistent query set.
* **reset, don't rebuild** — each stream opens one group session
  (:class:`~repro.xsq.push.MultiPushHandle`).  Its member runtimes,
  output queues and aggregate buffers are the grouped engine's: a
  finished stream resets them and hands them to the next document, so
  a run of documents builds them once per engine, not once per
  document.  A stream opened while another is still open builds its
  own set, and a finished stream's counts (``events_fed``) stay its
  own.  The session hands back one ``(member, values)`` group per
  member with new results, and the stream fans each group out to the
  member's subscriptions (:meth:`BrokerStream._route`).

Per-tenant accounting flows into an optional
:class:`~repro.obs.Observability` bundle as ``repro_serve_*`` metrics
(subscriptions gauge, results/documents/chunks/bytes counters, all
labelled by tenant), scrapeable through the bundle's ``/metrics``
endpoint.  The asyncio front-end in :mod:`repro.serve.server` wraps
this class; it is equally usable in-process::

    broker = SubscriptionBroker()
    sid = broker.subscribe("//book[price<11]/title/text()")
    stream = broker.open_stream()
    for chunk in chunks:
        for sub_id, value in stream.feed(chunk):
            deliver(sub_id, value)
    stream.finish()
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import QuotaExceededError, StreamError
from repro.streaming.push import PushBatchParser
from repro.xsq.fastpath import TagTable
from repro.xsq.push import MultiPushHandle

DEFAULT_TENANT = "default"


class Subscription:
    """One registered standing query (``query`` is its parsed AST,
    ``text`` the canonical text subscriptions are grouped by)."""

    __slots__ = ("sid", "query", "text", "tenant", "results", "documents")

    def __init__(self, sid: str, query, tenant: str):
        self.sid = sid
        self.query = query
        self.text = query.text
        self.tenant = tenant
        self.results = 0
        self.documents = 0

    def as_dict(self) -> dict:
        return {"sub": self.sid, "query": self.text, "tenant": self.tenant,
                "results": self.results, "documents": self.documents}


class _Snapshot:
    """One consistent view of the registry for the documents it serves.

    ``sids`` are the registered subscription ids in registration order;
    ``engine`` is the grouped engine over the distinct query texts (None
    when the registry is empty); ``fanout[i]`` lists the subscription
    ids whose canonical text is member ``i``, in registration order.
    """

    __slots__ = ("generation", "sids", "engine", "fanout")

    def __init__(self, generation: int, sids: List[str], engine, fanout):
        self.generation = generation
        self.sids = sids
        self.engine = engine
        self.fanout: List[Tuple[str, ...]] = fanout


class SubscriptionBroker:
    """Hot-swappable registry of standing queries + per-document streams.

    ``max_subscriptions_per_tenant`` bounds each tenant's standing
    queries (:class:`~repro.errors.QuotaExceededError` beyond it);
    ``obs`` attaches an :class:`~repro.obs.Observability` bundle for
    the ``repro_serve_*`` metrics.  Thread-safe: registry mutations and
    engine rebuilds are locked; each :class:`BrokerStream` is owned by
    its caller (feed one stream from one thread at a time).
    """

    def __init__(self, obs=None, *,
                 max_subscriptions_per_tenant: Optional[int] = None,
                 cache=None):
        self.obs = obs
        #: End-to-end delivery latency tracker; streams opened from this
        #: broker stamp one provenance record per delivered result
        #: against it.  Off (``None``) when no bundle is attached, and
        #: the stamp sites then cost one None test.
        self.delivery = obs.enable_delivery() if obs is not None else None
        self.max_subscriptions_per_tenant = max_subscriptions_per_tenant
        self._cache = cache
        self._lock = threading.Lock()
        self._subs: Dict[str, Subscription] = {}
        self._by_tenant: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._generation = 0
        # The grouped engine and the distinct texts it was built over
        # (its member order); reused while that set is unchanged.
        self._engine = None
        self._texts: List[str] = []
        self._snapshot: Optional[_Snapshot] = None

    # -- registry ----------------------------------------------------------

    def subscribe(self, query: str, tenant: str = DEFAULT_TENANT) -> str:
        """Register a standing query; returns its subscription id.

        The query is parsed eagerly so syntax errors surface here, not
        on the first document.  Takes effect for streams opened after
        this call.
        """
        from repro.xpath.parser import parse_query
        parsed = parse_query(query)
        with self._lock:
            quota = self.max_subscriptions_per_tenant
            held = self._by_tenant.get(tenant, 0)
            if quota is not None and held >= quota:
                raise QuotaExceededError(
                    "tenant %r already holds %d subscriptions "
                    "(quota %d)" % (tenant, held, quota),
                    tenant=tenant, quota=quota)
            sid = "s%d" % next(self._ids)
            self._subs[sid] = Subscription(sid, parsed, tenant)
            self._by_tenant[tenant] = held + 1
            self._generation += 1
        self._gauge_subscriptions(tenant)
        return sid

    def unsubscribe(self, sid: str) -> bool:
        """Remove a standing query; returns whether it existed.

        Streams already opened keep evaluating their snapshot; the
        subscription stops matching from the next document.
        """
        with self._lock:
            sub = self._subs.pop(sid, None)
            if sub is None:
                return False
            self._by_tenant[sub.tenant] -= 1
            self._generation += 1
        self._gauge_subscriptions(sub.tenant)
        return True

    def get(self, sid: str) -> Optional[Subscription]:
        return self._subs.get(sid)

    @property
    def subscription_count(self) -> int:
        return len(self._subs)

    def describe(self) -> List[dict]:
        """Registry snapshot for the server's ``stats`` op.

        Each entry names the runtime its query's engine member runs
        (``kernel`` or ``xsq-f``), its ``parser projection:`` line (the
        tags the member keeps, or why it needs every tag and so keeps
        the shared parser from dropping any) and how many distinct
        queries the registry holds (the members each document is
        evaluated on).
        """
        snapshot = self._current()
        runtimes: Dict[str, str] = {}
        projections: Dict[str, str] = {}
        engine = snapshot.engine
        if engine is not None:
            for i, (owners, runtime) in enumerate(
                    zip(snapshot.fanout, engine.member_runtimes)):
                projection = engine.member_projection(i)
                for sid in owners:
                    runtimes[sid] = runtime
                    projections[sid] = projection
        distinct = len(snapshot.fanout)
        with self._lock:
            subs = list(self._subs.values())
        described = []
        for sub in subs:
            entry = sub.as_dict()
            entry["runtime"] = runtimes.get(sub.sid)
            entry["projection"] = projections.get(sub.sid)
            entry["distinct_queries"] = distinct
            described.append(entry)
        return described

    # -- evaluation --------------------------------------------------------

    def _current(self) -> _Snapshot:
        """The registry snapshot, refreshed when the registry moved.

        Subscriptions are grouped by canonical query text, and the
        grouped engine is built over the distinct texts only.  A change
        that leaves the distinct set as it was (a duplicate's subscribe
        or unsubscribe, a churn that re-registers the same text) keeps
        the engine and rebuilds only the fan-out table.
        """
        with self._lock:
            snapshot = self._snapshot
            if snapshot is not None and \
                    snapshot.generation == self._generation:
                return snapshot
            owners: Dict[str, List[str]] = {}
            for sid, sub in self._subs.items():
                owners.setdefault(sub.text, []).append(sid)
            if set(owners) != set(self._texts):
                self._texts = list(owners)
                if self._texts:
                    from repro.xsq.multiquery import MultiQueryEngine
                    self._engine = MultiQueryEngine(
                        [self._subs[sids[0]].query
                         for sids in owners.values()],
                        cache=self._cache)
                else:
                    self._engine = None
            snapshot = _Snapshot(
                self._generation, list(self._subs), self._engine,
                [tuple(owners[text]) for text in self._texts])
            self._snapshot = snapshot
            return snapshot

    def _snapshot_engine(self):
        """``(subscription ids, grouped engine)`` of the current
        snapshot (the engine is None for an empty registry)."""
        snapshot = self._current()
        return list(snapshot.sids), snapshot.engine

    def open_stream(self, tenant: str = DEFAULT_TENANT) -> "BrokerStream":
        """Start one document against the current registry snapshot."""
        return BrokerStream(self, self._current(), tenant)

    # -- metrics -----------------------------------------------------------

    def _gauge_subscriptions(self, tenant: str) -> None:
        if self.obs is None:
            return
        self.obs.metrics.gauge(
            "repro_serve_subscriptions",
            "standing queries currently registered, by tenant",
            tenant=tenant).set(self._by_tenant.get(tenant, 0))

    def _count(self, name: str, help: str, tenant: str, n: int = 1) -> None:
        if self.obs is None or n == 0:
            return
        self.obs.metrics.counter(name, help, tenant=tenant).inc(n)


class BrokerStream:
    """One document fed incrementally through every registered query.

    Results are ``(subscription_id, value)`` pairs.  Each subscription's
    results arrive in document order, and every result a chunk
    determines is returned by that chunk's ``feed()`` (order *across*
    subscriptions within one call is not promised).  ``finish()``
    flushes the engines' buffer discipline and closes the stream.  When
    the registry snapshot was empty, chunks are still parsed (a
    malformed document errors identically with or without subscribers).
    """

    def __init__(self, broker: SubscriptionBroker, snapshot: _Snapshot,
                 tenant: str):
        self._broker = broker
        self._sids = snapshot.sids
        self._fanout = snapshot.fanout
        self._tenant = tenant
        self._bytes = 0
        self._chunks = 0
        self.closed = False
        engine = snapshot.engine
        # Results need document order per subscription only, so the
        # group session runs whole batches (ordered=False) and hands
        # back one group of values per member.  The broker's engine
        # carries no obs bundle, so every member that lowers runs its
        # kernel.  An empty registry still parses.
        self._handle = (MultiPushHandle(engine, ordered=False)
                        if engine is not None else None)
        self._parser = PushBatchParser(self._handle.tags
                                       if self._handle is not None
                                       else TagTable())
        delivery = broker.delivery
        self._latency = (delivery.recorder()
                         if delivery is not None and self._handle is not None
                         else None)

    @property
    def subscription_ids(self) -> List[str]:
        """The registry snapshot this stream evaluates."""
        return list(self._sids)

    def _route(self, groups) -> List[Tuple[str, str]]:
        """Fan each member's group of results out to every subscription
        that owns the member's query.

        ``groups`` are the group session's ``(member, values)`` pairs,
        one per member with new results.  Each owner of a group gets
        its ``(subscription_id, value)`` pairs in one run and is
        counted once for the group (and its tenant, when an obs bundle
        takes the tally); only subscriptions still registered are
        counted.  The returned pairs keep each subscription's values in
        document order.  Groups are small (a 256-byte chunk determines
        a value or two per member), so a plain append loop beats an
        ``extend`` over ``zip``.
        """
        if not groups:
            return []
        fanout = self._fanout
        broker = self._broker
        subs_get = broker._subs.get
        per_tenant: Optional[Dict[str, int]] = (
            {} if broker.obs is not None else None)
        out: List[Tuple[str, str]] = []
        append = out.append
        for index, values in groups:
            n = len(values)
            for sid in fanout[index]:
                for value in values:
                    append((sid, value))
                sub = subs_get(sid)
                if sub is not None:
                    sub.results += n
                    if per_tenant is not None:
                        per_tenant[sub.tenant] = \
                            per_tenant.get(sub.tenant, 0) + n
        if per_tenant:
            for tenant, n in per_tenant.items():
                broker._count(
                    "repro_serve_results_total",
                    "subscription results delivered, by owning tenant",
                    tenant, n)
        return out

    def _stamp(self, routed: List[Tuple[str, str]]) -> None:
        """Stamp emission onto one provenance record per delivered
        pair, labelled with its subscription and that one's tenant."""
        subs = self._broker._subs
        owners = []
        for sid, _value in routed:
            sub = subs.get(sid)
            owners.append((sid, sub.tenant if sub is not None
                           else self._tenant))
        self._latency.emitted_to(owners)

    def take_timings(self):
        """Claim the provenance records emitted since the last take."""
        return self._latency.take() if self._latency is not None else []

    def feed(self, chunk) -> List[Tuple[str, str]]:
        """Parse one raw chunk; return newly determined results."""
        if self.closed:
            raise StreamError("stream already finished")
        self._chunks += 1
        self._bytes += len(chunk)
        recorder = self._latency
        if recorder is not None:
            recorder.start_feed()
        parsed = self._parser.feed(chunk)
        if recorder is not None:
            recorder.mark_batch()
        if self._handle is None:
            return []
        out = self._route(self._handle.feed_batch(parsed))
        if recorder is not None:
            self._stamp(out)
        return out

    def finish(self) -> List[Tuple[str, str]]:
        """End the document; return tail results and record accounting."""
        if self.closed:
            return []
        self.closed = True
        recorder = self._latency
        if recorder is not None:
            recorder.start_feed()
        parsed = self._parser.finish()
        if recorder is not None:
            recorder.mark_batch()
        out: List[Tuple[str, str]] = []
        if self._handle is not None:
            out = self._route(self._handle.feed_batch(parsed)
                              + self._handle.finish())
            if recorder is not None:
                self._stamp(out)
        broker = self._broker
        for sid in self._sids:
            sub = broker._subs.get(sid)
            if sub is not None:
                sub.documents += 1
        broker._count("repro_serve_documents_total",
                      "documents streamed to completion, by feeding tenant",
                      self._tenant)
        broker._count("repro_serve_chunks_total",
                      "raw chunks fed, by feeding tenant",
                      self._tenant, self._chunks)
        broker._count("repro_serve_bytes_total",
                      "raw bytes fed, by feeding tenant",
                      self._tenant, self._bytes)
        return out

    @property
    def events_fed(self) -> int:
        return self._handle.events_fed if self._handle is not None else 0
