"""The serving subsystem: ETAP as a concurrent request/response portal.

The batch pipeline produces alerts in a loop; this package turns its
artifacts into a system that answers analyst traffic:

* :mod:`repro.serve.shards` — :class:`ShardedIndex`: one immutable
  index per :class:`IndexSnapshot` generation with an atomic swap, so
  reads never block re-indexing; doc-id-hashed shards partition it;
* :mod:`repro.serve.cache` — :class:`QueryCache`: TTL'd, size- and
  entry-bounded LRU with generation-wise invalidation and explicit
  stale reads;
* :mod:`repro.serve.workers` — :class:`WorkerPool`: single-flight
  execution on the caller's thread, identical in-flight queries
  coalesced, per-request deadlines;
* :mod:`repro.serve.admission` — :class:`TokenBucket` rate limiting
  per client plus a bounded admission queue (the bound on concurrent
  requests) whose overflow is a ``Rejected`` *value*, never an
  exception;
* :mod:`repro.serve.portal` — :class:`AlertPortal`: the facade;
  multi-tenant subscriptions (company/driver filters), ``query()``,
  ``poll_alerts()`` on AlertService idempotency keys;
* :mod:`repro.serve.loadgen` — :class:`LoadGenerator`: seeded
  closed-loop clients with zipf query popularity, driving
  ``repro serve``, ``repro health`` and ``repro top``.

Every module reads time from the tracer it is given
(``tracer.clock``): one clock per run, chosen at
:class:`~repro.obs.tracer.Tracer`.  A ``Tracer(clock=FakeClock())``
makes every TTL, token refill, deadline and latency an exact function
of the ticks a test advances.

See ``docs/SERVING.md`` for the architecture and the overload /
zero-downtime-swap semantics the serve test suite enforces.
"""

from repro.serve.admission import (
    ADMITTED,
    QUEUE_FULL,
    RATE_LIMITED,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.cache import (
    MISS,
    CacheKey,
    CacheStats,
    QueryCache,
    cache_key,
)
from repro.serve.loadgen import (
    LoadGenerator,
    LoadReport,
    zipf_weights,
)
from repro.serve.portal import (
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_STALE,
    AlertPortal,
    QueryResponse,
    Subscription,
)
from repro.serve.replication import (
    REPLICA_DOWN,
    REPLICA_UP,
    Replica,
    ReplicaGroup,
    ReplicaSet,
)
from repro.serve.router import HedgedRouter, RouteResult
from repro.serve.shards import IndexSnapshot, ShardedIndex, shard_of
from repro.serve.workers import (
    DEADLINE_EXCEEDED,
    ERROR,
    OK,
    WorkerPool,
    WorkOutcome,
)

__all__ = [
    "ADMITTED",
    "AdmissionController",
    "AdmissionDecision",
    "AlertPortal",
    "CacheKey",
    "CacheStats",
    "DEADLINE_EXCEEDED",
    "ERROR",
    "HedgedRouter",
    "IndexSnapshot",
    "LoadGenerator",
    "LoadReport",
    "MISS",
    "OK",
    "QUEUE_FULL",
    "QueryCache",
    "QueryResponse",
    "RATE_LIMITED",
    "REPLICA_DOWN",
    "REPLICA_UP",
    "Replica",
    "ReplicaGroup",
    "ReplicaSet",
    "RouteResult",
    "STATUS_DEADLINE",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_STALE",
    "ShardedIndex",
    "Subscription",
    "TokenBucket",
    "WorkOutcome",
    "WorkerPool",
    "cache_key",
    "shard_of",
    "zipf_weights",
]
