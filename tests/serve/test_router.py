"""HedgedRouter: pinning, hedging, breakers, degraded fallbacks."""

from __future__ import annotations

import pytest

from repro.obs.clock import FakeClock
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.robustness.fetcher import CircuitBreaker
from repro.robustness.faults import _unit
from repro.serve.replication import ReplicaSet
from repro.serve.router import HedgedRouter
from repro.serve.shards import ShardedIndex

QUERIES = [
    "merger acquisition",
    "acme expands factory",
    "hiring spree widgets",
    "new product launch",
    "partnership announcement",
    "quarterly revenue growth",
]


def make_docs(n: int, marker: str = "alpha"):
    return [
        (
            f"{marker}-{i:04d}",
            f"Acme {marker} merger acquisition factory widgets "
            f"product launch partnership revenue number {i}",
            f"title {i}",
        )
        for i in range(n)
    ]


def build_cluster(
    n_shards: int = 2,
    n_replicas: int = 3,
    n_docs: int = 24,
    **router_kwargs,
):
    """A fresh replica set with one installed snapshot + its router."""
    index = ShardedIndex(n_shards=n_shards)
    snapshot = index.rebuild(make_docs(n_docs))
    replicas = ReplicaSet(n_shards=n_shards, n_replicas=n_replicas)
    replicas.install_snapshot(snapshot)
    router_kwargs.setdefault("tracer", Tracer(clock=FakeClock()))
    router = HedgedRouter(replicas, **router_kwargs)
    return index, snapshot, replicas, router


def primary_index(router, shard: int, query: str, n_candidates: int):
    """The replica index the router will try first for ``query``."""
    return int(
        _unit(router.seed, "primary", shard, query) * n_candidates
    ) % n_candidates


class TestFaultFreeRouting:
    def test_matches_snapshot_search_exactly(self):
        _, snapshot, _, router = build_cluster()
        for query in QUERIES:
            result = router.route(query, top_k=10)
            assert result.results == tuple(
                snapshot.search(query, top_k=10)
            )
            assert result.generation == snapshot.generation
            assert not result.degraded
            assert result.hedges == 0
            assert result.max_inflight == 1

    def test_advances_the_injected_clock_by_the_latency(self):
        clock = FakeClock()
        _, _, _, router = build_cluster(tracer=Tracer(clock=clock))
        result = router.route(QUERIES[0])
        assert clock.now() == pytest.approx(result.latency)


class TestHedging:
    def test_down_primary_hedges_within_budget(self):
        log = EventLog()
        _, snapshot, replicas, router = build_cluster(
            n_shards=1, tracer=Tracer(clock=FakeClock(), recorder=log)
        )
        query = QUERIES[0]
        victim = primary_index(router, 0, query, 3)
        replicas.kill(0, victim)
        result = router.route(query, top_k=10)
        # The hedge fires at hedge_after and a healthy replica answers
        # in well under fail_after: the timeout never reaches the tail.
        assert result.hedges == 1
        assert result.max_inflight == 2
        assert (
            router.hedge_after
            < result.latency
            < router.hedge_after + 0.01
        )
        assert result.latency < router.fail_after
        # Degraded it is not: a full-strength answer from a live peer.
        assert not result.degraded
        assert result.results == tuple(snapshot.search(query, top_k=10))
        hedge_events = log.events("query_hedged")
        assert len(hedge_events) == 1
        payload = hedge_events[0].payload
        assert payload["query"] == query
        assert payload["primary"] == f"shard0/r{victim}"

    def test_serial_failover_eats_the_timeout_when_unhedged(self):
        _, snapshot, replicas, router = build_cluster(
            n_shards=1, hedging=False
        )
        query = QUERIES[0]
        victim = primary_index(router, 0, query, 3)
        replicas.kill(0, victim)
        result = router.route(query, top_k=10)
        # Same storm, no hedge: the dead primary costs fail_after in
        # full before the failover lands — this gap is the whole bench.
        assert result.hedges == 0
        assert result.max_inflight == 1
        assert result.latency > router.fail_after
        assert result.results == tuple(snapshot.search(query, top_k=10))

    def test_fast_failover_does_not_spend_the_hedge(self):
        """A NACK (stale replica) fails over serially, hedge unspent,
        and never counts against the replica's breaker."""
        index, _, replicas, router = build_cluster(n_shards=1)
        replicas.kill(0, 0)
        replicas.install_snapshot(index.rebuild(make_docs(24, "beta")))
        replicas.restore(0, 0, catch_up=False)
        stale = replicas.replica(0, 0)
        assert stale.generation == 1
        # A query whose rotation picks the stale replica first.
        query = next(
            q
            for q in (f"merger acquisition v{i}" for i in range(64))
            if primary_index(router, 0, q, 3) == 0
        )
        result = router.route(query)
        assert result.generation == 2
        assert not result.degraded
        assert result.hedges == 0
        assert result.max_inflight == 1
        assert result.attempts == 2  # NACK, then a serving peer
        assert stale.breaker.failures == 0
        assert stale.breaker.state == CircuitBreaker.CLOSED


class TestDegradedReads:
    def test_whole_group_down_serves_from_shipping_log(self):
        log = EventLog()
        _, snapshot, replicas, router = build_cluster(
            tracer=Tracer(clock=FakeClock(), recorder=log)
        )
        for index in range(3):
            replicas.kill(0, index)
        query = QUERIES[0]
        result = router.route(query, top_k=10)
        # Degraded, flagged, and still *complete*: shard 0 answers
        # from the shipping log at the same pinned generation.
        assert result.degraded
        assert result.generation == snapshot.generation
        assert result.results == tuple(snapshot.search(query, top_k=10))
        degraded = log.events("degraded_read")
        assert [event.payload["source"] for event in degraded] == [
            "replica_group"
        ]
        assert degraded[0].payload["shard"] == 0

    def test_stale_group_pins_the_whole_response_back(self):
        log = EventLog()
        index, old_snapshot, replicas, router = build_cluster(
            n_shards=2, tracer=Tracer(clock=FakeClock(), recorder=log)
        )
        # Group 0 misses generation 2 entirely, then comes back stale.
        for replica_index in range(3):
            replicas.kill(0, replica_index)
        replicas.install_snapshot(index.rebuild(make_docs(24, "beta")))
        for replica_index in range(3):
            replicas.restore(0, replica_index, catch_up=False)
        query = QUERIES[0]
        result = router.route(query, top_k=10)
        # Generation pinning: *both* shards answer at generation 1 —
        # never a half-old, half-new merge — and the read is flagged.
        assert result.generation == 1
        assert result.degraded
        assert result.results == tuple(
            old_snapshot.search(query, top_k=10)
        )
        sources = [
            event.payload["source"]
            for event in log.events("degraded_read")
        ]
        assert sources == ["stale_replica"]


class TestBreakers:
    def test_repeated_timeouts_open_the_breaker_and_exclude(self):
        log = EventLog()
        _, _, replicas, router = build_cluster(
            n_shards=1,
            hedging=False,
            tracer=Tracer(clock=FakeClock(), recorder=log),
        )
        query = QUERIES[0]
        victim_index = primary_index(router, 0, query, 3)
        victim = replicas.replica(0, victim_index)
        replicas.kill(0, victim_index)
        for _ in range(victim.breaker.failure_threshold):
            result = router.route(query)
            assert result.latency > router.fail_after
        assert victim.breaker.state == CircuitBreaker.OPEN
        opened = log.events("breaker_open")
        assert [event.payload["host"] for event in opened] == [
            victim.replica_id
        ]
        # Discovery paid for: the dead replica is no longer dispatched
        # to, so the same query now clears in service time.
        result = router.route(query)
        assert result.latency < router.hedge_after
        assert result.attempts == 1

    def test_restore_closes_the_breaker_and_readmits(self):
        _, _, replicas, router = build_cluster(
            n_shards=1, hedging=False
        )
        query = QUERIES[0]
        victim_index = primary_index(router, 0, query, 3)
        victim = replicas.replica(0, victim_index)
        replicas.kill(0, victim_index)
        for _ in range(victim.breaker.failure_threshold):
            router.route(query)
        assert victim.breaker.state == CircuitBreaker.OPEN
        replicas.restore(0, victim_index)
        assert victim.breaker.state == CircuitBreaker.CLOSED
        result = router.route(query)
        assert result.latency < router.hedge_after


class TestValidation:
    def test_rejects_bad_deadlines(self):
        replicas = ReplicaSet(n_shards=1, n_replicas=2)
        with pytest.raises(ValueError):
            HedgedRouter(replicas, hedge_after=0.0)
        with pytest.raises(ValueError):
            HedgedRouter(replicas, hedge_after=0.5, fail_after=0.5)
