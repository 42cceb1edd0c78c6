"""TTL'd LRU result cache with generation-wise invalidation.

The portal's smart queries are heavily repeated (templated entity
queries, zipf-popular analyst searches), so a small result cache
absorbs most of the read load.  The cache is bounded two ways —
``max_entries`` and a cost budget ``max_cost`` (least-recently-used
entries evicted first) — and every entry carries:

* an **expiry instant** on the tracer's clock (TTL; a
  :class:`~repro.obs.clock.FakeClock` tracer drives deterministic
  expiry tests).  Setting :attr:`QueryCache.tracer` moves every entry
  to the new clock with the TTL it had left;
* the **index generation** it was computed against.  A snapshot swap
  bumps the portal's generation; entries from older generations are
  lazily dropped on access and eagerly dropped by
  :meth:`invalidate_other_generations`, so a re-index never serves a
  mixed-generation result as fresh.

Stale reads are explicit: :meth:`get_stale` returns an expired or
old-generation value (for overload degradation) without ever counting
as a fresh hit.  All operations are lock-guarded and O(1) amortized;
hit/miss/eviction/expiry counters feed the Prometheus export.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.obs.tracer import NULL_TRACER, AnyTracer

#: Returned by :meth:`QueryCache.get` on a miss (``None`` is a value).
MISS = object()


@dataclass
class CacheStats:
    """Lifetime counters; snapshot with :meth:`QueryCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    stale_reads: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass(slots=True)
class _Entry:
    value: object
    expires_at: float
    generation: int
    cost: float = 1.0


class QueryCache:
    """Size- and entry-bounded LRU with TTL and generation tags."""

    def __init__(
        self,
        max_entries: int = 1024,
        max_cost: float = 65_536.0,
        ttl: float = 30.0,
        tracer: AnyTracer | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_cost <= 0:
            raise ValueError("max_cost must be positive")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.max_entries = max_entries
        self.max_cost = max_cost
        self.ttl = ttl
        self._tracer = NULL_TRACER if tracer is None else tracer
        self._entries: OrderedDict[object, _Entry] = OrderedDict()
        self._total_cost = 0.0
        self._lock = threading.Lock()
        self._stats = CacheStats()

    @property
    def tracer(self) -> AnyTracer:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: AnyTracer) -> None:
        """Switch handles; entries keep the TTL they had left."""
        with self._lock:
            shift = tracer.clock.now() - self._tracer.clock.now()
            self._tracer = tracer
            for entry in self._entries.values():
                entry.expires_at += shift

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    @property
    def total_cost(self) -> float:
        return self._total_cost

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(**vars(self._stats))

    # -- core ------------------------------------------------------------------

    def get(self, key: object, generation: int, now: float | None = None):
        """Fresh lookup: right generation and unexpired, else ``MISS``.

        Expired and wrong-generation entries are dropped on the way —
        lazy invalidation keeps a hot cache self-cleaning.  ``now`` is
        a reading of the tracer's clock the caller already took.
        """
        if now is None:
            now = self.tracer.clock.now()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return MISS
            if entry.generation != generation:
                self._drop(key, entry)
                self._stats.invalidations += 1
                self._stats.misses += 1
                return MISS
            if now >= entry.expires_at:
                self._drop(key, entry)
                self._stats.expirations += 1
                self._stats.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry.value

    def get_stale(self, key: object):
        """Degraded lookup: any cached value, however old, else ``MISS``.

        The overload path uses this — a stale answer beats a rejection
        — and it never touches the hit/miss counters, so the fresh hit
        rate stays honest.  Every stale serve is flight-recorded as a
        ``degraded_read``, so a portal quietly living off yesterday's
        answers is visible in the event log and the SLO rollup.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISS
            self._stats.stale_reads += 1
            value = entry.value
        self.tracer.emit("degraded_read", source="query_cache")
        return value

    def put(
        self,
        key: object,
        value: object,
        generation: int,
        cost: float = 1.0,
        now: float | None = None,
    ) -> None:
        """Insert/replace; evicts LRU entries to stay within bounds.

        The entry expires ``ttl`` after ``now`` (a reading of the
        tracer's clock the caller already took), else after this call.
        """
        cost = max(1.0, float(cost))
        if now is None:
            now = self.tracer.clock.now()
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._total_cost -= old.cost
            if cost > self.max_cost:
                # Larger than the whole budget: admitting it would
                # evict everything and still overflow; skip it.
                return
            self._entries[key] = _Entry(value, now + self.ttl, generation, cost)
            self._total_cost += cost
            while (
                len(self._entries) > self.max_entries
                or self._total_cost > self.max_cost
            ):
                _, victim = self._entries.popitem(last=False)
                self._total_cost -= victim.cost
                self._stats.evictions += 1

    def invalidate_other_generations(self, generation: int) -> int:
        """Eagerly drop entries not from ``generation``; returns count."""
        with self._lock:
            doomed = [
                (key, entry)
                for key, entry in self._entries.items()
                if entry.generation != generation
            ]
            for key, entry in doomed:
                self._drop(key, entry)
            self._stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total_cost = 0.0

    # -- internals -------------------------------------------------------------

    def _drop(self, key: object, entry: _Entry) -> None:
        """Remove one entry; caller holds the lock."""
        del self._entries[key]
        self._total_cost -= entry.cost


class CacheKey(NamedTuple):
    """Canonical cache key for a portal query (hashed and compared in C)."""

    query: str
    top_k: int


def cache_key(query: str, top_k: int) -> CacheKey:
    """Whitespace-normalize the query so trivial variants share an
    entry (and coalesce in the worker pool, which keys the same way)."""
    return CacheKey(" ".join(query.split()), top_k)
