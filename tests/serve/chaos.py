"""A deterministic kill/restore schedule for the chaos suites.

:class:`ChaosMonkey` drives a :class:`~repro.serve.replication.ReplicaSet`
on the router's (simulated) clock: every ``period`` ticks it takes one
replica of *every* group down for ``down_for`` ticks, rotating through
replica indices so each replica of each group is exercised.
:func:`tick_before_each_route` ticks it inline before every routed query.
"""

from __future__ import annotations

import threading

from repro.serve.replication import ReplicaSet
from repro.serve.router import HedgedRouter


class ChaosMonkey:
    """Deterministic kill/restore schedule over a replica set.

    Driven inline by the router's clock (no threads; a ``FakeClock``
    tracer makes it simulated time): on every :meth:`tick`, any due
    kill or restore in the schedule is applied.  Cycle ``k`` (kill at
    ``start + k * period``, restore ``down_for`` ticks later) takes
    replica ``k % n_replicas`` of **every** group down, so each
    replica index of each group gets exercised as the clock advances.
    With ``n_replicas >= 2`` a majority of every group stays up at all
    times.
    """

    def __init__(
        self,
        replicas: ReplicaSet,
        period: float = 3.0,
        down_for: float = 1.5,
        start: float | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0 < down_for < period:
            raise ValueError("down_for must be in (0, period)")
        self.replicas = replicas
        self.period = period
        self.down_for = down_for
        self._cycle = 0
        self._next_kill = period if start is None else start
        self._restore_at: float | None = None
        self._victim: int | None = None
        self.kills = 0
        self.restores = 0

    @property
    def victim(self) -> int | None:
        """Replica index currently held down (None between cycles)."""
        return self._victim

    def tick(self, now: float) -> None:
        """Apply every kill/restore due at simulated time ``now``."""
        while True:
            if self._victim is not None:
                if now < self._restore_at:
                    return
                for shard in range(self.replicas.n_shards):
                    self.replicas.restore(shard, self._victim)
                self.restores += 1
                self._victim = None
                self._cycle += 1
                self._next_kill += self.period
            elif now >= self._next_kill:
                victim = self._cycle % self.replicas.n_replicas
                for shard in range(self.replicas.n_shards):
                    self.replicas.kill(shard, victim)
                self.kills += 1
                self._victim = victim
                self._restore_at = self._next_kill + self.down_for
            else:
                return

    def finish(self) -> None:
        """Restore anything still down (end-of-run cleanup)."""
        if self._victim is not None:
            for shard in range(self.replicas.n_shards):
                self.replicas.restore(shard, self._victim)
            self.restores += 1
            self._victim = None
            self._cycle += 1
            self._next_kill += self.period


def tick_before_each_route(monkey: ChaosMonkey, router: HedgedRouter) -> None:
    """Apply ``monkey``'s due kills and restores before each route.

    The tick and the route it precedes run under one lock, so no other
    query reads the clock between them.
    """
    route = router.route
    lock = threading.Lock()

    def chaotic_route(query: str, top_k: int = 10):
        with lock:
            monkey.tick(router.tracer.clock.now())
            return route(query, top_k=top_k)

    router.route = chaotic_route
