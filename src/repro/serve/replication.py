"""Simulated replica groups: snapshot shipping, lag, kill/restore.

The portal's :class:`~repro.serve.shards.ShardedIndex` publishes
immutable :class:`~repro.serve.shards.IndexSnapshot` generations; a
replicated deployment ships each generation's shard views (one
partition, scored with the generation's global statistics) to N
replicas per shard.  This module simulates that cluster in-process:

* :class:`Replica` — one copy of one shard.  Holds the last few
  generations it installed (so the router can pin a whole response to
  one generation even when replicas restart mid-swap), an ``up/down``
  state, and a per-replica
  :class:`~repro.robustness.fetcher.CircuitBreaker` the router consults
  before dispatching.
* :class:`ReplicaGroup` — the N replicas of one shard plus the group's
  shipping log (every generation that was ever shipped, bounded).  A
  down replica misses installs; :meth:`restore` catches it up from the
  shipping log, and ``lag`` (generations behind the latest ship) is the
  staleness measure the gauges export.
* :class:`ReplicaSet` — one group per shard; installs whole snapshots,
  kills/restores by address, and emits ``replica_down`` /
  ``replica_restored`` flight-recorder events.

Everything here is a value-level simulation — shard views are shared
immutable objects, "shipping" is a reference install — but the control
plane (state machines, staleness, breaker interplay) is the real
design, and it is what the chaos suite pins.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.robustness.fetcher import CircuitBreaker
from repro.serve.shards import IndexSnapshot, ShardView

REPLICA_UP = "up"
REPLICA_DOWN = "down"

#: Generations of history a replica (and its group's shipping log)
#: retains.  Old enough that a router pinning ``min`` over groups can
#: always find the target generation; small enough to stay bounded.
DEFAULT_HISTORY = 8


class Replica:
    """One copy of one shard: installed generations + health state."""

    def __init__(
        self,
        replica_id: str,
        shard: int,
        history: int = DEFAULT_HISTORY,
        failure_threshold: int = 3,
        cool_off: float = 2.0,
    ) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self.replica_id = replica_id
        self.shard = shard
        self.history = history
        self.state = REPLICA_UP
        #: generation -> shard view, oldest first, bounded to ``history``.
        self._views: OrderedDict[int, ShardView] = OrderedDict()
        #: The router's health signal for this replica; the router
        #: records successes/failures, the group resets it on restore.
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold, cool_off=cool_off
        )

    # -- state -----------------------------------------------------------------

    @property
    def up(self) -> bool:
        return self.state == REPLICA_UP

    @property
    def down(self) -> bool:
        return self.state == REPLICA_DOWN

    @property
    def generation(self) -> int:
        """Newest generation installed (0 before any install)."""
        if not self._views:
            return 0
        return next(reversed(self._views))

    # -- data plane ------------------------------------------------------------

    def install(self, generation: int, view: ShardView) -> None:
        """Ship one generation of this shard onto the replica."""
        self._views[generation] = view
        self._views.move_to_end(generation)
        while len(self._views) > self.history:
            self._views.popitem(last=False)

    def serves(self, generation: int) -> bool:
        return generation in self._views

    def view_at(self, generation: int) -> ShardView | None:
        return self._views.get(generation)


class ReplicaGroup:
    """The N replicas of one shard plus the group's shipping log."""

    def __init__(
        self,
        shard: int,
        n_replicas: int,
        history: int = DEFAULT_HISTORY,
        failure_threshold: int = 3,
        cool_off: float = 2.0,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.shard = shard
        self.replicas = [
            Replica(
                replica_id=f"shard{shard}/r{index}",
                shard=shard,
                history=history,
                failure_threshold=failure_threshold,
                cool_off=cool_off,
            )
            for index in range(n_replicas)
        ]
        #: The shipping log: every generation shipped to this group,
        #: whether or not any replica was up to take it.  This is the
        #: "generation-tagged cache" degraded reads fall back to — a
        #: whole group down must not make the shard unanswerable.
        self._shipped: OrderedDict[int, ShardView] = OrderedDict()
        self.history = history

    # -- introspection ---------------------------------------------------------

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def latest_generation(self) -> int:
        """Newest generation ever shipped to the group (0 if none)."""
        if not self._shipped:
            return 0
        return next(reversed(self._shipped))

    def up_replicas(self) -> list[Replica]:
        return [replica for replica in self.replicas if replica.up]

    def lag(self, index: int) -> int:
        """Generations the replica trails the latest ship."""
        return max(
            0, self.latest_generation - self.replicas[index].generation
        )

    def best_generation(self) -> int:
        """Newest generation any *up* replica serves (0 if none up)."""
        ups = self.up_replicas()
        if not ups:
            return 0
        return max(replica.generation for replica in ups)

    def shipped_view(self, generation: int) -> ShardView | None:
        """The shipping log's copy of ``generation`` (stale fallback)."""
        return self._shipped.get(generation)

    # -- lifecycle -------------------------------------------------------------

    def install(self, generation: int, view: ShardView) -> None:
        """Ship a generation: log it, install on every up replica.

        Down replicas miss the install — that is what creates lag —
        and pick the generation up on :meth:`restore`.
        """
        self._shipped[generation] = view
        self._shipped.move_to_end(generation)
        while len(self._shipped) > self.history:
            self._shipped.popitem(last=False)
        for replica in self.replicas:
            if replica.up:
                replica.install(generation, view)

    def kill(self, index: int) -> Replica:
        replica = self.replicas[index]
        replica.state = REPLICA_DOWN
        return replica

    def restore(self, index: int, catch_up: bool = True) -> Replica:
        """Bring a replica back; by default re-ship the latest gen.

        ``catch_up=False`` restores the replica with whatever it held
        when it went down — the stale-replica scenario the staleness
        tests exercise.
        """
        replica = self.replicas[index]
        replica.state = REPLICA_UP
        if catch_up and self._shipped:
            generation = self.latest_generation
            replica.install(generation, self._shipped[generation])
        # A restored process starts with a clean failure history.
        replica.breaker.record_success()
        return replica


class ReplicaSet:
    """One :class:`ReplicaGroup` per shard; the router's world view."""

    def __init__(
        self,
        n_shards: int,
        n_replicas: int,
        history: int = DEFAULT_HISTORY,
        failure_threshold: int = 3,
        cool_off: float = 2.0,
        tracer: AnyTracer | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.groups = [
            ReplicaGroup(
                shard=shard,
                n_replicas=n_replicas,
                history=history,
                failure_threshold=failure_threshold,
                cool_off=cool_off,
            )
            for shard in range(n_shards)
        ]

    # -- introspection ---------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.groups)

    @property
    def n_replicas(self) -> int:
        return self.groups[0].n_replicas

    @property
    def latest_generation(self) -> int:
        return max(group.latest_generation for group in self.groups)

    def replica(self, shard: int, index: int) -> Replica:
        return self.groups[shard].replicas[index]

    # -- data plane ------------------------------------------------------------

    def install_snapshot(self, snapshot: IndexSnapshot) -> None:
        """Ship one whole snapshot: shard ``i``'s view to group ``i``."""
        if snapshot.n_shards != self.n_shards:
            raise ValueError(
                f"snapshot has {snapshot.n_shards} shards; "
                f"replica set has {self.n_shards}"
            )
        for shard, view in enumerate(snapshot.shards):
            self.groups[shard].install(snapshot.generation, view)

    # -- lifecycle -------------------------------------------------------------

    def kill(self, shard: int, index: int) -> Replica:
        replica = self.groups[shard].kill(index)
        self.tracer.count("serve.replica_kills")
        self.tracer.emit(
            "replica_down", shard=shard, replica=replica.replica_id
        )
        return replica

    def restore(
        self, shard: int, index: int, catch_up: bool = True
    ) -> Replica:
        lag = self.groups[shard].lag(index)
        replica = self.groups[shard].restore(index, catch_up=catch_up)
        self.tracer.count("serve.replica_restores")
        self.tracer.emit(
            "replica_restored",
            shard=shard,
            replica=replica.replica_id,
            lag=lag,
        )
        return replica

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """Per-group health rollup (gauges + bench source)."""
        groups = []
        for group in self.groups:
            groups.append(
                {
                    "shard": group.shard,
                    "n_replicas": group.n_replicas,
                    "up": len(group.up_replicas()),
                    "latest_generation": group.latest_generation,
                    "max_lag": max(
                        group.lag(index)
                        for index in range(group.n_replicas)
                    ),
                    "breakers_open": sum(
                        1
                        for replica in group.replicas
                        if replica.breaker.state != CircuitBreaker.CLOSED
                    ),
                }
            )
        return {
            "n_shards": self.n_shards,
            "n_replicas": self.n_replicas,
            "latest_generation": self.latest_generation,
            "groups": groups,
        }
