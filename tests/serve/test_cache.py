"""QueryCache: LRU/TTL/generation semantics, exactly, on a fake clock."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve.cache import MISS, QueryCache, cache_key


@pytest.fixture
def clock():
    return FakeClock()


class TestBasics:
    def test_miss_then_hit(self, clock):
        cache = QueryCache(ttl=10.0, tracer=Tracer(clock=clock))
        key = cache_key("new ceo", 10)
        assert cache.get(key, generation=1) is MISS
        cache.put(key, ["r1"], generation=1)
        assert cache.get(key, generation=1) == ["r1"]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_key_normalization(self):
        assert cache_key("  new   ceo ", 5) == cache_key("new ceo", 5)
        assert cache_key("new ceo", 5) != cache_key("new ceo", 6)

    def test_replace_updates_value(self, clock):
        cache = QueryCache(tracer=Tracer(clock=clock))
        key = cache_key("q", 1)
        cache.put(key, "old", generation=1)
        cache.put(key, "new", generation=1)
        assert cache.get(key, generation=1) == "new"
        assert len(cache) == 1


class TestTtl:
    def test_expires_exactly_at_ttl(self, clock):
        cache = QueryCache(ttl=5.0, tracer=Tracer(clock=clock))
        key = cache_key("q", 1)
        cache.put(key, "v", generation=1)
        clock.advance(4.999)
        assert cache.get(key, generation=1) == "v"
        clock.advance(0.001)
        assert cache.get(key, generation=1) is MISS
        assert cache.stats().expirations == 1

    def test_expired_entry_is_dropped(self, clock):
        cache = QueryCache(ttl=1.0, tracer=Tracer(clock=clock))
        key = cache_key("q", 1)
        cache.put(key, "v", generation=1)
        clock.advance(2.0)
        cache.get(key, generation=1)
        assert len(cache) == 0


class TestLru:
    def test_entry_bound_evicts_oldest(self, clock):
        cache = QueryCache(max_entries=3, tracer=Tracer(clock=clock))
        keys = [cache_key(f"q{i}", 1) for i in range(4)]
        for key in keys:
            cache.put(key, "v", generation=1)
        assert len(cache) == 3
        assert cache.get(keys[0], generation=1) is MISS
        assert cache.stats().evictions == 1

    def test_recent_access_protects_entry(self, clock):
        cache = QueryCache(max_entries=3, tracer=Tracer(clock=clock))
        keys = [cache_key(f"q{i}", 1) for i in range(3)]
        for key in keys:
            cache.put(key, "v", generation=1)
        cache.get(keys[0], generation=1)  # refresh q0
        cache.put(cache_key("q3", 1), "v", generation=1)
        assert cache.get(keys[0], generation=1) == "v"
        assert cache.get(keys[1], generation=1) is MISS

    def test_cost_bound_evicts(self, clock):
        cache = QueryCache(
            max_entries=100, max_cost=10.0, tracer=Tracer(clock=clock)
        )
        cache.put(cache_key("a", 1), "v", generation=1, cost=6.0)
        cache.put(cache_key("b", 1), "v", generation=1, cost=6.0)
        assert len(cache) == 1
        assert cache.total_cost == 6.0

    def test_oversized_entry_not_admitted(self, clock):
        cache = QueryCache(max_cost=10.0, tracer=Tracer(clock=clock))
        cache.put(cache_key("big", 1), "v", generation=1, cost=11.0)
        assert len(cache) == 0


class TestGenerations:
    def test_wrong_generation_is_a_miss(self, clock):
        cache = QueryCache(tracer=Tracer(clock=clock))
        key = cache_key("q", 1)
        cache.put(key, "v", generation=1)
        assert cache.get(key, generation=2) is MISS
        assert len(cache) == 0  # lazily dropped
        assert cache.stats().invalidations == 1

    def test_eager_invalidation(self, clock):
        cache = QueryCache(tracer=Tracer(clock=clock))
        for i in range(5):
            cache.put(cache_key(f"q{i}", 1), "v", generation=1)
        cache.put(cache_key("fresh", 1), "v", generation=2)
        dropped = cache.invalidate_other_generations(2)
        assert dropped == 5
        assert len(cache) == 1
        assert cache.get(cache_key("fresh", 1), generation=2) == "v"


class TestStaleReads:
    def test_stale_ignores_ttl_and_generation(self, clock):
        cache = QueryCache(ttl=1.0, tracer=Tracer(clock=clock))
        key = cache_key("q", 1)
        cache.put(key, "v", generation=1)
        clock.advance(100.0)
        assert cache.get_stale(key) == "v"
        stats = cache.stats()
        assert stats.stale_reads == 1
        assert stats.hits == 0  # stale reads never inflate hit rate

    def test_stale_miss(self, clock):
        cache = QueryCache(tracer=Tracer(clock=clock))
        assert cache.get_stale(cache_key("absent", 1)) is MISS

    def test_stale_serve_emits_exactly_one_degraded_read(self, clock):
        """Regression: the stale path used to bypass the flight
        recorder, so a portal living off expired answers was invisible
        to the degraded-reads SLO.  One stale serve, one event."""
        from repro.obs.events import EventLog

        log = EventLog()
        cache = QueryCache(
            ttl=1.0, tracer=Tracer(clock=clock, recorder=log)
        )
        key = cache_key("q", 1)
        cache.put(key, "v", generation=1)
        clock.advance(100.0)
        assert cache.get_stale(key) == "v"
        events = log.events("degraded_read")
        assert len(events) == 1
        assert events[0].payload == {"source": "query_cache"}
        # And again: each stale serve is its own event, exactly one.
        assert cache.get_stale(key) == "v"
        assert len(log.events("degraded_read")) == 2

    def test_stale_miss_emits_nothing(self, clock):
        from repro.obs.events import EventLog

        log = EventLog()
        cache = QueryCache(tracer=Tracer(clock=clock, recorder=log))
        assert cache.get_stale(cache_key("absent", 1)) is MISS
        assert log.events("degraded_read") == []

    def test_fresh_hit_emits_nothing(self, clock):
        from repro.obs.events import EventLog

        log = EventLog()
        cache = QueryCache(
            ttl=10.0, tracer=Tracer(clock=clock, recorder=log)
        )
        key = cache_key("q", 1)
        cache.put(key, "v", generation=1)
        assert cache.get(key, generation=1) == "v"
        assert log.events("degraded_read") == []


class TestValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)
        with pytest.raises(ValueError):
            QueryCache(max_cost=0)
        with pytest.raises(ValueError):
            QueryCache(ttl=0)


# -- property suite ------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "advance", "invalidate"]),
        st.integers(min_value=0, max_value=9),   # key
        st.integers(min_value=1, max_value=3),   # generation
        st.floats(min_value=0.0, max_value=5.0,  # clock step
                  allow_nan=False),
    ),
    max_size=60,
)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops, max_entries=st.integers(min_value=1, max_value=6))
    def test_capacity_never_exceeded(self, ops, max_entries):
        clock = FakeClock()
        cache = QueryCache(
            max_entries=max_entries, max_cost=1e9, ttl=10.0,
            tracer=Tracer(clock=clock),
        )
        for op, key_n, generation, step in ops:
            key = cache_key(f"q{key_n}", 1)
            if op == "put":
                cache.put(key, key_n, generation=generation)
            elif op == "get":
                cache.get(key, generation=generation)
            elif op == "advance":
                clock.advance(step)
            else:
                cache.invalidate_other_generations(generation)
            assert len(cache) <= max_entries

    @settings(max_examples=60, deadline=None)
    @given(
        ttl=st.floats(min_value=0.5, max_value=20.0),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
            min_size=1, max_size=20,
        ),
    )
    def test_ttl_expiry_monotone_on_tick_clock(self, ttl, steps):
        """Once expired, an entry stays expired as time only advances."""
        clock = FakeClock()
        cache = QueryCache(ttl=ttl, tracer=Tracer(clock=clock))
        key = cache_key("q", 1)
        cache.put(key, "v", generation=1)
        inserted_at = 0.0
        seen_expired = False
        for step in steps:
            clock.advance(step)
            value = cache.get(key, generation=1)
            expired_now = value is MISS
            if seen_expired:
                assert expired_now  # never resurrects
            seen_expired = seen_expired or expired_now
            expected_expired = (
                clock.now() - inserted_at
            ) >= ttl
            assert expired_now == expected_expired

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=30,
        ),
        current=st.integers(min_value=1, max_value=4),
    )
    def test_generation_invalidation_empties_stale(self, entries,
                                                   current):
        clock = FakeClock()
        cache = QueryCache(
            max_entries=64, ttl=100.0, tracer=Tracer(clock=clock)
        )
        for key_n, generation in entries:
            cache.put(
                cache_key(f"q{key_n}", 1), key_n,
                generation=generation,
            )
        cache.invalidate_other_generations(current)
        # Every survivor must be from the current generation: probing
        # any key at `current` either hits or misses, but never
        # triggers another generation invalidation.
        before = cache.stats().invalidations
        for key_n, _ in entries:
            cache.get(cache_key(f"q{key_n}", 1), generation=current)
        assert cache.stats().invalidations == before
