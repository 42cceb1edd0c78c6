"""ReplicaGroup/ReplicaSet/ChaosMonkey: shipping, lag, kill/restore."""

from __future__ import annotations

import pytest

from repro.obs.clock import FakeClock
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.robustness.fetcher import CircuitBreaker
from repro.serve.replication import Replica, ReplicaGroup, ReplicaSet
from repro.serve.shards import ShardedIndex
from tests.serve.chaos import ChaosMonkey


def make_docs(n: int, marker: str = "alpha"):
    return [
        (
            f"{marker}-{i:04d}",
            f"Acme {marker} acquired Widgets number {i} in a merger",
            f"title {i}",
        )
        for i in range(n)
    ]


def make_snapshot(n_shards: int = 2, n: int = 12, marker: str = "alpha"):
    return ShardedIndex(n_shards=n_shards).rebuild(make_docs(n, marker))


class TestReplica:
    def test_generations_bounded_by_history(self):
        replica = Replica("shard0/r0", shard=0, history=3)
        for generation in range(1, 6):
            replica.install(generation, object())
        assert [g for g in range(1, 6) if replica.serves(g)] == [3, 4, 5]
        assert replica.generation == 5
        assert not replica.serves(2)
        assert replica.serves(4)

    def test_fresh_replica_is_up_at_generation_zero(self):
        replica = Replica("shard0/r0", shard=0)
        assert replica.up and not replica.down
        assert replica.generation == 0
        assert replica.view_at(1) is None

    def test_history_must_be_positive(self):
        with pytest.raises(ValueError):
            Replica("shard0/r0", shard=0, history=0)


class TestReplicaGroup:
    def test_install_skips_down_replicas(self):
        group = ReplicaGroup(shard=0, n_replicas=3)
        group.install(1, object())
        group.kill(1)
        group.install(2, object())
        assert [replica.generation for replica in group.replicas] == [
            2, 1, 2,
        ]
        assert group.lag(1) == 1
        assert group.best_generation() == 2

    def test_restore_catches_up_by_default(self):
        group = ReplicaGroup(shard=0, n_replicas=2)
        group.install(1, object())
        group.kill(0)
        group.install(2, object())
        group.restore(0)
        assert group.replicas[0].generation == 2
        assert group.lag(0) == 0

    def test_restore_without_catch_up_stays_stale(self):
        group = ReplicaGroup(shard=0, n_replicas=2)
        group.install(1, object())
        group.kill(0)
        group.install(2, object())
        group.restore(0, catch_up=False)
        assert group.replicas[0].generation == 1
        assert group.lag(0) == 1
        # The stale replica still drags best_generation when it is the
        # newest up copy.
        group.kill(1)
        assert group.best_generation() == 1

    def test_restore_resets_breaker(self):
        group = ReplicaGroup(shard=0, n_replicas=2, failure_threshold=1)
        group.replicas[0].breaker.record_failure(0.0)
        assert group.replicas[0].breaker.state == CircuitBreaker.OPEN
        group.kill(0)
        group.restore(0)
        assert group.replicas[0].breaker.state == CircuitBreaker.CLOSED

    def test_shipping_log_survives_total_outage(self):
        view = object()
        group = ReplicaGroup(shard=0, n_replicas=2)
        group.kill(0)
        group.kill(1)
        group.install(1, view)
        assert not group.up_replicas()
        assert group.best_generation() == 0
        # The generation still shipped: degraded reads have a source.
        assert group.latest_generation == 1
        assert group.shipped_view(1) is view

    def test_shipping_log_bounded_by_history(self):
        group = ReplicaGroup(shard=0, n_replicas=1, history=2)
        for generation in range(1, 5):
            group.install(generation, object())
        assert group.shipped_view(2) is None
        assert group.shipped_view(4) is not None


class TestReplicaSet:
    def test_install_snapshot_ships_every_shard(self):
        snapshot = make_snapshot(n_shards=2)
        replicas = ReplicaSet(n_shards=2, n_replicas=3)
        replicas.install_snapshot(snapshot)
        for shard, group in enumerate(replicas.groups):
            for replica in group.replicas:
                assert replica.view_at(1) is snapshot.shards[shard]
        assert replicas.latest_generation == 1

    def test_shard_count_mismatch_raises(self):
        snapshot = make_snapshot(n_shards=3)
        replicas = ReplicaSet(n_shards=2, n_replicas=2)
        with pytest.raises(ValueError, match="shards"):
            replicas.install_snapshot(snapshot)

    def test_kill_restore_emit_events_with_lag(self):
        log = EventLog()
        index = ShardedIndex(n_shards=1)
        replicas = ReplicaSet(
            n_shards=1,
            n_replicas=2,
            tracer=Tracer(clock=FakeClock(), recorder=log),
        )
        replicas.install_snapshot(index.rebuild(make_docs(12)))
        replicas.kill(0, 1)
        replicas.install_snapshot(index.rebuild(make_docs(12, "beta")))
        # One more ship while down: the restore event reports the lag
        # the replica had accumulated *before* catching up.
        down = log.events("replica_down")
        assert [event.payload["replica"] for event in down] == [
            "shard0/r1"
        ]
        replicas.restore(0, 1)
        restored = log.events("replica_restored")
        assert restored[0].payload == {
            "shard": 0, "replica": "shard0/r1", "lag": 1,
        }
        assert replicas.replica(0, 1).generation == 2

    def test_stats_rollup(self):
        replicas = ReplicaSet(n_shards=2, n_replicas=3)
        replicas.install_snapshot(make_snapshot(n_shards=2))
        replicas.kill(1, 0)
        stats = replicas.stats()
        assert stats["n_shards"] == 2
        assert stats["n_replicas"] == 3
        assert stats["groups"][0]["up"] == 3
        assert stats["groups"][1]["up"] == 2
        assert stats["groups"][1]["latest_generation"] == 1


class TestChaosMonkey:
    def test_schedule_is_deterministic(self):
        replicas = ReplicaSet(n_shards=2, n_replicas=3)
        monkey = ChaosMonkey(replicas, period=3.0, down_for=1.5)
        monkey.tick(2.9)
        assert monkey.kills == 0
        monkey.tick(3.0)
        assert monkey.kills == 1
        assert monkey.victim == 0
        for group in replicas.groups:
            assert not group.replicas[0].up
        monkey.tick(4.4)
        assert monkey.restores == 0  # restore due at 4.5
        monkey.tick(4.5)
        assert monkey.restores == 1
        assert monkey.victim is None
        for group in replicas.groups:
            assert group.replicas[0].up

    def test_victim_rotates_across_cycles(self):
        replicas = ReplicaSet(n_shards=1, n_replicas=3)
        monkey = ChaosMonkey(replicas, period=1.0, down_for=0.5)
        victims = []
        for cycle in range(1, 5):
            monkey.tick(float(cycle))
            victims.append(monkey.victim)
            monkey.tick(cycle + 0.5)
        assert victims == [0, 1, 2, 0]

    def test_big_jump_applies_whole_backlog(self):
        """A single late tick catches up kills *and* restores in order."""
        replicas = ReplicaSet(n_shards=1, n_replicas=2)
        monkey = ChaosMonkey(replicas, period=1.0, down_for=0.5)
        monkey.tick(10.0)
        # Every earlier cycle resolved (kill then restore); only the
        # cycle due at t=10 is still holding its victim down.
        assert monkey.kills == monkey.restores + 1
        assert monkey.victim is not None

    def test_finish_restores_the_last_victim(self):
        replicas = ReplicaSet(n_shards=2, n_replicas=2)
        monkey = ChaosMonkey(replicas, period=1.0, down_for=0.9)
        monkey.tick(1.0)
        assert any(
            not replica.up
            for group in replicas.groups
            for replica in group.replicas
        )
        monkey.finish()
        assert monkey.victim is None
        assert all(
            replica.up
            for group in replicas.groups
            for replica in group.replicas
        )

    def test_rejects_bad_schedule(self):
        replicas = ReplicaSet(n_shards=1, n_replicas=2)
        with pytest.raises(ValueError):
            ChaosMonkey(replicas, period=0.0)
        with pytest.raises(ValueError):
            ChaosMonkey(replicas, period=1.0, down_for=1.0)
