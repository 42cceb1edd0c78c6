"""Closed-loop load generation for the portal, deterministically seeded.

A :class:`LoadGenerator` drives an :class:`~repro.serve.portal.
AlertPortal` the way a fleet of analysts would: ``n_clients`` threads,
each issuing its next query only after the previous one answered
(closed loop, so the offered load self-limits the way real interactive
users do), queries drawn from a fixed list with zipf popularity (a few
queries dominate, the long tail trickles — the distribution that makes
a result cache worth having).

Determinism: each client owns ``random.Random(seed * 10007 + client)``
and a fixed per-client request budget, so the multiset of (client,
query) requests is a pure function of ``(seed, n_clients, n_queries,
queries)`` — identical on every run, so status counts can be compared
across commits.

Latencies are the portal's own: each is the ``QueryResponse.latency``
the portal also observes into ``serve.latency``, on its tracer's clock
— wall seconds on a monotonic clock, simulated ticks on a replicated
portal or a :class:`~repro.obs.clock.FakeClock` tracer.  Percentiles
use :func:`~repro.obs.timeseries.exact_quantile`, the nearest rank the
telemetry sketches answer below their spill threshold.  They vary with
the machine; the *workload* does not.
"""

from __future__ import annotations

import gc
import random
import threading
from dataclasses import dataclass, field

from repro.obs.timeseries import exact_quantile
from repro.serve.portal import AlertPortal


def zipf_weights(n: int, s: float = 1.1) -> list[float]:
    """Unnormalized zipf popularity weights for ranks ``1..n``."""
    if n < 1:
        raise ValueError("need at least one query")
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


@dataclass
class LoadReport:
    """What one load run produced; :meth:`to_dict` is the bench schema."""

    n_clients: int
    n_queries: int
    seed: int
    wall_seconds: float
    latencies: list[float] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=dict)
    cache_hit_rate: float = 0.0
    shard_docs: list[int] = field(default_factory=list)
    generation: int = 0

    @property
    def p50_ms(self) -> float:
        return exact_quantile(sorted(self.latencies), 0.5) * 1000.0

    @property
    def p99_ms(self) -> float:
        return exact_quantile(sorted(self.latencies), 0.99) * 1000.0

    @property
    def qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.latencies) / self.wall_seconds

    @property
    def shard_balance(self) -> float:
        """max/mean shard occupancy (1.0 = perfectly balanced)."""
        if not self.shard_docs or not any(self.shard_docs):
            return 1.0
        mean = sum(self.shard_docs) / len(self.shard_docs)
        return max(self.shard_docs) / mean if mean else 1.0

    def to_dict(self) -> dict:
        return {
            "n_clients": self.n_clients,
            "n_queries": self.n_queries,
            "seed": self.seed,
            "wall_seconds": round(self.wall_seconds, 4),
            "qps": round(self.qps, 2),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "statuses": dict(sorted(self.statuses.items())),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "shard_docs": list(self.shard_docs),
            "shard_balance": round(self.shard_balance, 4),
            "generation": self.generation,
        }


class LoadGenerator:
    """Seeded closed-loop client fleet over a portal."""

    def __init__(
        self,
        portal: AlertPortal,
        queries: list[str],
        n_clients: int = 8,
        n_queries: int = 200,
        zipf_s: float = 1.1,
        top_k: int = 10,
        timeout: float | None = None,
        seed: int = 7,
    ) -> None:
        if not queries:
            raise ValueError("need a non-empty query list")
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        self.portal = portal
        self.queries = list(queries)
        self.n_clients = n_clients
        self.n_queries = n_queries
        self.weights = zipf_weights(len(self.queries), zipf_s)
        self.top_k = top_k
        self.timeout = timeout
        self.seed = seed

    def _client_budgets(self) -> list[int]:
        """Split n_queries across clients deterministically."""
        base, extra = divmod(self.n_queries, self.n_clients)
        return [
            base + (1 if client < extra else 0)
            for client in range(self.n_clients)
        ]

    def plan(self, client: int) -> list[str]:
        """The exact query sequence client ``client`` will issue."""
        rng = random.Random(self.seed * 10007 + client)
        budget = self._client_budgets()[client]
        return rng.choices(self.queries, weights=self.weights, k=budget)

    def run(self) -> LoadReport:
        """Drive the portal with every client; returns the report."""
        latencies: list[float] = []
        statuses: dict[str, int] = {}
        lock = threading.Lock()
        # Collect the garbage the setup left (a gather, an index build)
        # before the clock starts: a full collection it would trigger
        # mid-run pauses every client at once, which is not serving
        # latency and alone can push a small sample's p99 past an SLO.
        gc.collect()
        before = self.portal.cache.stats()
        clock = self.portal.tracer.clock

        def client_loop(client: int) -> None:
            client_id = f"client-{client:03d}"
            for query in self.plan(client):
                response = self.portal.query(
                    client_id,
                    query,
                    top_k=self.top_k,
                    timeout=self.timeout,
                )
                with lock:
                    latencies.append(response.latency)
                    statuses[response.status] = (
                        statuses.get(response.status, 0) + 1
                    )

        threads = [
            threading.Thread(
                target=client_loop, args=(client,),
                name=f"loadgen-{client}",
            )
            for client in range(self.n_clients)
        ]
        wall_start = clock.now()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = clock.now() - wall_start

        after = self.portal.cache.stats()
        lookups = (after.hits - before.hits) + (
            after.misses - before.misses
        )
        hit_rate = (
            (after.hits - before.hits) / lookups if lookups else 0.0
        )
        snapshot = self.portal.shards.snapshot
        return LoadReport(
            n_clients=self.n_clients,
            n_queries=self.n_queries,
            seed=self.seed,
            wall_seconds=wall,
            latencies=latencies,
            statuses=statuses,
            cache_hit_rate=hit_rate,
            shard_docs=snapshot.shard_sizes(),
            generation=snapshot.generation,
        )
