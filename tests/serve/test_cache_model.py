"""QueryCache against a plain ``OrderedDict`` LRU model.

Every operation sequence — puts, fresh and stale reads, clock advances
and generation sweeps, under a :class:`~repro.obs.clock.FakeClock` —
must leave the cache and the model with the same answers, the same
entries in the same recency order, the same ``total_cost`` and the same
:class:`~repro.serve.cache.CacheStats` counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve.cache import MISS, CacheStats, QueryCache, cache_key

MAX_ENTRIES = 4
MAX_COST = 12.0
TTL = 5.0


class ModelCache:
    """The cache's contract, written as plainly as possible."""

    def __init__(self) -> None:
        #: key -> [value, expires_at, generation, cost], LRU first.
        self.entries: OrderedDict = OrderedDict()
        self.stats = CacheStats()

    @property
    def total_cost(self) -> float:
        return sum(entry[3] for entry in self.entries.values())

    def get(self, key, generation, now):
        entry = self.entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return MISS
        if entry[2] != generation:
            del self.entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return MISS
        if now >= entry[1]:
            del self.entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return MISS
        self.entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def get_stale(self, key):
        entry = self.entries.get(key)
        if entry is None:
            return MISS
        self.stats.stale_reads += 1
        return entry[0]

    def put(self, key, value, generation, cost, now):
        cost = max(1.0, float(cost))
        self.entries.pop(key, None)
        if cost > MAX_COST:
            return
        self.entries[key] = [value, now + TTL, generation, cost]
        while len(self.entries) > MAX_ENTRIES or self.total_cost > MAX_COST:
            self.entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_other_generations(self, generation):
        doomed = [
            key
            for key, entry in self.entries.items()
            if entry[2] != generation
        ]
        for key in doomed:
            del self.entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)


keys = st.builds(
    cache_key,
    st.sampled_from(["merger", "new  ceo", "new ceo", "ipo", "layoffs"]),
    st.sampled_from([5, 10]),
)
generations = st.integers(min_value=0, max_value=2)
# The caller's clock reading, or none (the cache then reads the clock).
pass_now = st.booleans()
operations = st.one_of(
    st.tuples(
        st.just("put"), keys, st.integers(0, 99), generations,
        st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0, 13.0]), pass_now,
    ),
    st.tuples(st.just("get"), keys, generations, pass_now),
    st.tuples(st.just("get_stale"), keys),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 5.0])),
    st.tuples(st.just("sweep"), generations),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=60))
def test_cache_matches_an_ordered_dict_lru(ops):
    clock = FakeClock()
    cache = QueryCache(
        max_entries=MAX_ENTRIES,
        max_cost=MAX_COST,
        ttl=TTL,
        tracer=Tracer(clock=clock),
    )
    model = ModelCache()
    for op in ops:
        kind = op[0]
        if kind == "put":
            _, key, value, generation, cost, given_now = op
            now = clock.now() if given_now else None
            cache.put(key, value, generation, cost=cost, now=now)
            model.put(key, value, generation, cost, clock.now())
        elif kind == "get":
            _, key, generation, given_now = op
            now = clock.now() if given_now else None
            assert cache.get(key, generation, now=now) == model.get(
                key, generation, clock.now()
            )
        elif kind == "get_stale":
            assert cache.get_stale(op[1]) == model.get_stale(op[1])
        elif kind == "advance":
            clock.advance(op[1])
        else:
            assert cache.invalidate_other_generations(
                op[1]
            ) == model.invalidate_other_generations(op[1])
        assert len(cache) == len(model.entries)
        assert [key in cache for key in model.entries] == [True] * len(
            model.entries
        )
        assert cache.total_cost == model.total_cost
        assert astuple(cache.stats()) == astuple(model.stats)
    # Recency order: refilling the cache evicts in the model's order.
    survivors = list(model.entries)
    for n in range(MAX_ENTRIES):
        filler = cache_key(f"filler {n}", 1)
        cache.put(filler, n, 0, now=clock.now())
        model.put(filler, n, 0, 1.0, clock.now())
        assert [key in cache for key in survivors] == [
            key in model.entries for key in survivors
        ]
