"""Process-wide compile cache: query string → frozen HPDT.

Compiled HPDTs are immutable once built — the runtimes only read the
BPDT tree, and every per-run mutable object (frames, predicate
instances, buffers) lives in :class:`~repro.xsq.matcher.MatcherRuntime`.
That makes an HPDT safe to share across engines, engine kinds (XSQ-F
and XSQ-NC compile the same structure), threads, and repeated
registrations of the same query — the "millions of users" case where
popular queries are compiled once per process, not once per session.

:class:`HpdtCache` is a small thread-safe LRU keyed on the query text,
with hit/miss/eviction counters that the engines export through
:mod:`repro.obs`.  :func:`compile_hpdt` is the front
door every engine uses; ``cache=False`` bypasses caching entirely and
``cache=None`` uses the process-default instance.

Caches are **fork-safe**: every instance registers with an
``os.register_at_fork`` handler that hands the child a freshly-created
lock, so a fork taken while another thread holds a cache lock (the
worker pool's startup pattern) can never deadlock the child.  Entries
are kept — they are immutable and pre-warm the child.

The fast path's lowered transition tables ride along: the first
:func:`repro.xsq.fastpath.compile_fastplan` call memoizes its
:class:`~repro.xsq.fastpath.FastPlan` on the HPDT (``hpdt._fastplan``),
so a cache hit skips both the HPDT build *and* the lowering, and
:func:`repro.xsq.codegen.compile_kernel` memoizes its generated kernel
on the plan (``plan.kernel``), so it also skips source generation and
``exec``.  Each memo is derived purely from the query, which is what
keeps them safe on shared instances.

    >>> from repro.xsq.compile_cache import DEFAULT_CACHE, compile_hpdt
    >>> first = compile_hpdt("/pub/book/name/text()")
    >>> compile_hpdt("/pub/book/name/text()") is first
    True
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Union

from repro.xpath.ast import Query
from repro.xpath.parser import parse_query
from repro.xsq.hpdt import Hpdt

#: Every live cache, so the at-fork handler can reach them all.  Weak:
#: registration must not keep short-lived test caches alive.
_ALL_CACHES: "weakref.WeakSet[HpdtCache]" = weakref.WeakSet()
_fork_hook_installed = False
_registry_lock = threading.Lock()


def _register(cache: "HpdtCache") -> None:
    global _fork_hook_installed
    with _registry_lock:
        _ALL_CACHES.add(cache)
        if not _fork_hook_installed and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook_installed = True


def _after_fork_in_child() -> None:
    """Make every cache usable in the child, whatever the parent's
    threads were doing at fork time.

    The forked child inherits each cache's lock *state* but only the
    forking thread — a lock held by any other parent thread would stay
    locked forever.  A brand-new lock is always safe here because the
    child is single-threaded at this point.
    """
    for cache in list(_ALL_CACHES):
        cache._lock = threading.Lock()


class HpdtCache:
    """Thread-safe LRU of compiled HPDTs; ``maxsize`` bounds the number
    of entries."""

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Hpdt]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _register(self)

    @staticmethod
    def _key(query: Union[str, Query],
             schema_key: Optional[str] = None) -> Optional[str]:
        """Cache key for a query; None means "not cacheable".

        String queries key on their stripped text; parsed queries key on
        the text the parser recorded.  Hand-built :class:`Query` objects
        with no source text bypass the cache.  ``schema_key`` (a
        :class:`~repro.xsq.schema_compile.CompiledSchema` fingerprint)
        is appended behind a NUL separator so the same query text
        compiled with no schema, with a schema, or with two different
        schemas can never collide — schema-derived memos (pruned plans,
        eager gates) ride the cached HPDT, so aliasing entries across
        schemas would leak one schema's optimizations into another's
        runs.
        """
        if isinstance(query, str):
            text = query.strip()
        else:
            text = (query.text or "").strip()
        if not text:
            return None
        if schema_key:
            return "%s\x00dtd=%s" % (text, schema_key)
        return text

    def get(self, query: Union[str, Query],
            schema_key: Optional[str] = None) -> Optional[Hpdt]:
        """The cached HPDT for ``query``, refreshing LRU order.

        A ``str`` query is looked up by text alone (parsing is
        deterministic, so the text determines the HPDT).  A parsed
        :class:`Query` is additionally verified structurally against
        the cached entry: synthesized queries (e.g. the schema
        optimizer's closure expansions) may carry the same ``text``
        with different steps, and must not alias each other.
        """
        key = self._key(query, schema_key)
        if key is None:
            return None
        check = query if isinstance(query, Query) else None
        with self._lock:
            hpdt = self._entries.get(key)
            if hpdt is not None:
                self._entries.move_to_end(key)
            if hpdt is not None and (check is None or hpdt.query == check):
                self.hits += 1
                return hpdt
            self.misses += 1
            return None

    def put(self, query: Union[str, Query], hpdt: Hpdt,
            schema_key: Optional[str] = None) -> None:
        key = self._key(query, schema_key)
        if key is None:
            return
        with self._lock:
            self._entries[key] = hpdt
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, query: Union[str, Query]) -> bool:
        key = self._key(query)
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._entries)}

    def __repr__(self):
        return ("<HpdtCache size=%d/%d hits=%d misses=%d>"
                % (len(self._entries), self.maxsize, self.hits,
                   self.misses))


#: The process-default cache every engine shares unless told otherwise.
DEFAULT_CACHE = HpdtCache(maxsize=256)


def compile_hpdt(query: Union[str, Query], cache=None, obs=None,
                 schema_key: Optional[str] = None) -> Hpdt:
    """Compile (or fetch) the HPDT for ``query``.

    ``cache`` may be an :class:`HpdtCache`, ``None`` (use
    :data:`DEFAULT_CACHE`), or ``False`` (always compile fresh).  With
    an :class:`~repro.obs.Observability` bundle attached, each call
    increments ``repro_compile_cache_total{result=hit|miss|bypass}``.
    ``schema_key`` (the attached schema's fingerprint, if any) becomes
    part of the cache key: schema-compiled HPDTs carry schema-derived
    plan memos and must never alias the schema-less entry.
    """
    if cache is None or cache is True:
        cache = DEFAULT_CACHE
    if cache is False:
        hpdt = Hpdt(parse_query(query) if isinstance(query, str) else query)
        _record(obs, "bypass")
        return hpdt
    hpdt = cache.get(query, schema_key)
    if hpdt is not None:
        _record(obs, "hit")
        return hpdt
    hpdt = Hpdt(parse_query(query) if isinstance(query, str) else query)
    cache.put(query, hpdt, schema_key)
    _record(obs, "miss")
    return hpdt


def _record(obs, result: str) -> None:
    if obs is not None:
        obs.metrics.counter(
            "repro_compile_cache_total",
            "HPDT compile-cache lookups by result", result=result).inc()


def clear_default_cache() -> None:
    """Reset the process-default cache (tests, memory pressure)."""
    DEFAULT_CACHE.clear()
