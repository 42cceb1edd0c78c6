"""The ETAP portal: analyst-facing serving facade.

The paper's ETAP delivers ranked trigger events to sales analysts
through a portal.  :class:`AlertPortal` is that layer for this repo:
an in-process request/response front over the batch pipeline's
artifacts, assembled from the serve substrate —

* a :class:`~repro.serve.shards.ShardedIndex` (one immutable index
  per generation, atomic swap) answers ad-hoc analyst queries without
  ever blocking on re-indexing.  Over an ETAP, each generation is a
  clone of the pipeline's own index, so analysts get exactly the
  ranking ETAP trains from;
* a :class:`~repro.serve.cache.QueryCache` absorbs repeated queries
  and is invalidated generation-wise on every snapshot swap;
* a :class:`~repro.serve.workers.WorkerPool` runs each cache miss on
  the caller's thread and coalesces identical in-flight queries;
* an :class:`~repro.serve.admission.AdmissionController` bounds
  concurrency: it applies per-client rate limits and queue
  backpressure, degrading to stale cached results under overload
  instead of failing.

Every TTL, token refill, deadline and latency reads the clock of the
portal's tracer, so a ``Tracer(clock=FakeClock())`` puts the whole
portal on one hand-cranked time axis.

Alert delivery is multi-tenant: analysts :meth:`subscribe` with
company and driver filters (the paper's driver taxonomy);
:meth:`poll_alerts` returns each matching alert exactly once per
subscription, keyed by the :class:`~repro.core.alerts.AlertService`
idempotency key, so re-polls and alert re-publication never duplicate.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.alerts import Alert
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.search.engine import SearchResult
from repro.serve.admission import AdmissionController
from repro.serve.cache import MISS, QueryCache, cache_key
from repro.serve.replication import ReplicaSet
from repro.serve.router import HedgedRouter, RouteResult
from repro.serve.shards import ShardedIndex
from repro.serve.workers import OK, WorkerPool

#: QueryResponse.status values.
STATUS_OK = "ok"
STATUS_STALE = "stale"
STATUS_REJECTED = "rejected"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_ERROR = "error"

#: Simulated ticks a replicated portal charges for answers that never
#: reach the router (cache hits, rejections): the in-process hop.
_LOCAL_COST = 0.0005


class QueryResponse(NamedTuple):
    """One portal answer; every field a value, never an exception.

    ``degraded`` tags every answer built from anything but a fresh,
    fully-replicated read — stale cache serves and replica-group
    fallbacks — so a consumer can always tell; nothing is ever
    silently stale.  ``hedged`` counts hedge requests the router
    issued while answering.
    """

    status: str
    results: tuple[SearchResult, ...] = ()
    generation: int = 0
    cached: bool = False
    reason: str = ""
    latency: float = 0.0
    degraded: bool = False
    hedged: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_STALE)


@dataclass
class Subscription:
    """One analyst's standing alert filter (a tenant of the portal)."""

    subscription_id: str
    analyst: str
    companies: frozenset[str] = frozenset()
    drivers: frozenset[str] = frozenset()
    #: Alert ids already delivered to this subscription.
    delivered: set[str] = field(default_factory=set)

    def matches(self, alert: Alert) -> bool:
        if self.drivers and alert.driver_id not in self.drivers:
            return False
        if self.companies:
            mentioned = {
                company.lower() for company in alert.event.companies
            }
            if not (self.companies & mentioned):
                return False
        return True


class AlertPortal:
    """Concurrent query/alert serving over a gathered collection."""

    def __init__(
        self,
        store,
        alert_service=None,
        n_shards: int = 4,
        cache: QueryCache | None = None,
        admission: AdmissionController | None = None,
        serve_stale_on_overload: bool = True,
        tracer: AnyTracer | None = None,
        engine=None,
        n_replicas: int = 1,
        hedge_after: float = 0.05,
        fail_after: float = 0.8,
        hedging: bool = True,
        replica_fault_profile=None,
        fault_seed: int = 0,
        replica_failure_threshold: int = 3,
        replica_cool_off: float = 2.0,
        quotas=None,
    ) -> None:
        self.store = store
        self.alert_service = alert_service
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.serve_stale_on_overload = serve_stale_on_overload
        self.shards = ShardedIndex(n_shards=n_shards, tracer=self.tracer)
        #: The pipeline's :class:`~repro.search.engine.SearchEngine`,
        #: whose index :meth:`refresh` clones; ``None`` for a bare store.
        self.engine = engine
        #: Doc ids present in the currently installed snapshot — what
        #: :meth:`refresh` diffs a bare store against.
        self._indexed_doc_ids: set[str] = set()
        self.cache = QueryCache() if cache is None else cache
        self.admission = (
            AdmissionController(quotas=quotas)
            if admission is None
            else admission
        )
        # Injected parts too run on the portal's tracer and its clock.
        self.cache.tracer = self.admission.tracer = self.tracer
        #: The simulated cluster: present only with ``n_replicas > 1``
        #: (a single-replica portal keeps the direct snapshot path and
        #: pays no routing overhead).
        self.replicas: ReplicaSet | None = None
        self.router: HedgedRouter | None = None
        if n_replicas > 1:
            self.replicas = ReplicaSet(
                n_shards=n_shards,
                n_replicas=n_replicas,
                failure_threshold=replica_failure_threshold,
                cool_off=replica_cool_off,
                tracer=self.tracer,
            )
            self.router = HedgedRouter(
                self.replicas,
                hedge_after=hedge_after,
                fail_after=fail_after,
                hedging=hedging,
                fault_profile=replica_fault_profile,
                seed=fault_seed,
                tracer=self.tracer,
            )
        self.workers = WorkerPool(self._execute_query, tracer=self.tracer)
        self._subscriptions: dict[str, Subscription] = {}
        self._alert_log: list[Alert] = []
        self._known_alert_ids: set[str] = set()
        self._sub_counter = itertools.count(1)
        self._lock = threading.Lock()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_etap(cls, etap, alert_service=None, **kwargs) -> "AlertPortal":
        """Build a portal serving an Etap's index (and optional service)."""
        kwargs.setdefault("tracer", etap.tracer)
        kwargs.setdefault("engine", etap.engine)
        portal = cls(etap.store, alert_service=alert_service, **kwargs)
        portal.refresh()
        return portal

    # -- index lifecycle -------------------------------------------------------

    @property
    def generation(self) -> int:
        return self.shards.generation

    def refresh(self) -> int:
        """Install the next generation; swap atomically.

        With the pipeline's engine attached, the generation is a
        :meth:`~repro.search.index.InvertedIndex.clone` of its index:
        the arrays are shared, nothing is copied or re-tokenized.  Over
        a bare store the first refresh builds an index; later ones
        extend a clone of it with the documents the store gained, or
        rebuild if any indexed document vanished.  Either way queries
        in flight finish against the generation they started on, and
        the cache drops every older-generation entry so nothing stale
        is ever served as fresh.  Returns the new generation.
        """
        if self.engine is not None:
            snapshot = self.shards.install(self.engine.index.clone())
        else:
            snapshot = self._index_store()
        if self.replicas is not None:
            # Ship the new generation to every up replica; down
            # replicas catch up on restore.
            self.replicas.install_snapshot(snapshot)
        self.cache.invalidate_other_generations(snapshot.generation)
        return snapshot.generation

    def _index_store(self):
        """Index a bare store: build once, then extend a clone."""
        current_ids = set(self.store.doc_ids())
        if self._indexed_doc_ids and self._indexed_doc_ids <= current_ids:
            new_ids = sorted(current_ids - self._indexed_doc_ids)
            snapshot = self.shards.extend(
                (document.doc_id, document.text, document.title)
                for document in map(self.store.get, new_ids)
            )
        else:
            snapshot = self.shards.rebuild_from_store(self.store)
        self._indexed_doc_ids = current_ids
        return snapshot

    # -- the query path --------------------------------------------------------

    def query(
        self,
        client_id: str,
        query: str,
        top_k: int = 10,
        timeout: float | None = None,
    ) -> QueryResponse:
        """Answer one analyst query; never raises.

        ``timeout`` is a per-request deadline in seconds on the
        tracer's clock; a cache miss that reaches the worker past its
        deadline returns ``deadline_exceeded`` instead of a late answer.
        """
        # One clock reading serves admission, the cache lookup, the
        # deadline and the latency's start.
        started = self.tracer.clock.now()
        self.tracer.count("serve.queries")
        key = cache_key(query, top_k)

        decision = self.admission.admit(client_id, now=started)
        if not decision:
            return self._overload_response(
                client_id, key, decision.reason, started
            )
        try:
            snapshot_generation = self.shards.generation
            cached = self.cache.get(key, snapshot_generation, now=started)
            if cached is not MISS:
                self.tracer.count("serve.cache_hits")
                return self._respond(
                    client_id,
                    key,
                    STATUS_OK,
                    results=cached,
                    generation=snapshot_generation,
                    cached=True,
                    started=started,
                    latency_override=self._local_latency(),
                )
            self.tracer.count("serve.cache_misses")
            deadline = (
                None if timeout is None else started + timeout
            )
            outcome = self.workers.execute(key, deadline=deadline)
            if outcome.status != OK:
                return self._respond(
                    client_id,
                    key,
                    outcome.status,
                    reason=outcome.error,
                    started=started,
                    latency_override=self._local_latency(),
                )
            routed = outcome.value
            # Starts the entry's TTL and ends a local read's latency.
            finished = self.tracer.clock.now()
            if not routed.degraded:
                # A degraded answer is correct for its pinned
                # generation but must never become a fresh hit.
                self.cache.put(
                    key,
                    routed.results,
                    routed.generation,
                    cost=1.0 + len(routed.results),
                    now=finished,
                )
            return self._respond(
                client_id,
                key,
                STATUS_OK,
                results=routed.results,
                generation=routed.generation,
                started=started,
                degraded=routed.degraded,
                hedged=routed.hedges,
                latency_override=(
                    max(0.0, finished - started)
                    if routed.latency is None
                    else routed.latency
                ),
            )
        finally:
            self.admission.release(client_id)

    def _execute_query(self, key) -> RouteResult:
        """A cache miss's search: one snapshot grabbed once, searched once.

        With replicas attached the read goes through the hedged
        router instead of the local snapshot, and the
        :class:`~repro.serve.router.RouteResult` also carries the
        degraded flag and the simulated latency.
        """
        if self.router is not None:
            return self.router.route(key.query, top_k=key.top_k)
        snapshot = self.shards.snapshot
        return RouteResult(
            tuple(snapshot.search(key.query, top_k=key.top_k)),
            snapshot.generation,
        )

    def _local_latency(self) -> float | None:
        """Latency override for answers that never left the portal.

        A replicated portal measures simulated ticks, and its shared
        clock advances as *other* threads route — so a cache hit must
        charge its own fixed in-process cost rather than a wall-clock
        difference polluted by concurrent queries.  Single-replica
        portals keep real elapsed time (``None`` = no override).
        """
        return _LOCAL_COST if self.router is not None else None

    def _overload_response(
        self, client_id: str, key, reason: str, started: float
    ) -> QueryResponse:
        """Rejected by admission: degrade to stale cache if allowed."""
        self.tracer.emit(
            "query_rejected", client_id=client_id, reason=reason
        )
        if self.serve_stale_on_overload:
            stale = self.cache.get_stale(key)
            if stale is not MISS:
                self.tracer.count("serve.stale_served")
                return self._respond(
                    client_id,
                    key,
                    STATUS_STALE,
                    results=stale,
                    generation=self.shards.generation,
                    cached=True,
                    reason=reason,
                    started=started,
                    degraded=True,
                    latency_override=self._local_latency(),
                )
        return self._respond(
            client_id, key, STATUS_REJECTED, reason=reason,
            started=started,
            latency_override=self._local_latency(),
        )

    def _respond(
        self,
        client_id: str,
        key,
        status: str,
        results=(),
        generation: int = 0,
        cached: bool = False,
        reason: str = "",
        started: float = 0.0,
        degraded: bool = False,
        hedged: int = 0,
        latency_override: float | None = None,
    ) -> QueryResponse:
        if latency_override is not None:
            latency = latency_override
        else:
            latency = max(0.0, self.tracer.clock.now() - started)
        self.tracer.observe("serve.latency_seconds", latency)
        windows = self.tracer.windows
        if windows is not None:
            # One windowed request per response, whatever the status:
            # serve-availability = serve.ok / serve.requests.
            windows.record("serve.requests")
            if status in (STATUS_OK, STATUS_STALE):
                windows.record("serve.ok")
            elif status == STATUS_REJECTED:
                windows.record("serve.rejected")
            if cached:
                windows.record("serve.cache_hits")
            if degraded:
                windows.record("serve.degraded")
            windows.observe("serve.latency", latency)
        self.tracer.emit(
            "query_served",
            client_id=client_id,
            query=key.query,
            status=status,
            n_results=len(results),
        )
        return QueryResponse(
            status, tuple(results), generation, cached, reason, latency,
            degraded, hedged,
        )

    # -- replica lifecycle -----------------------------------------------------

    def kill_replica(self, shard: int, index: int):
        """Take one replica down (chaos drills, ``--kill-replica``)."""
        if self.replicas is None:
            raise RuntimeError("portal has no replicas (n_replicas=1)")
        return self.replicas.kill(shard, index)

    # -- alert delivery --------------------------------------------------------

    def subscribe(
        self,
        analyst: str,
        companies=(),
        drivers=(),
    ) -> str:
        """Register a standing filter; returns the subscription id."""
        with self._lock:
            subscription_id = f"sub-{next(self._sub_counter):04d}"
            self._subscriptions[subscription_id] = Subscription(
                subscription_id=subscription_id,
                analyst=analyst,
                companies=frozenset(c.lower() for c in companies),
                drivers=frozenset(drivers),
            )
        self.tracer.count("serve.subscriptions")
        return subscription_id

    def publish(self, alerts) -> int:
        """Feed alerts into the portal's log; idempotent on alert id.

        The :class:`~repro.core.alerts.AlertService` idempotency key is
        the alert id, so republishing a poll report (or overlapping
        reports) adds each alert once, ever.
        """
        added = 0
        with self._lock:
            for alert in alerts:
                if alert.alert_id in self._known_alert_ids:
                    continue
                self._known_alert_ids.add(alert.alert_id)
                self._alert_log.append(alert)
                added += 1
        if added:
            self.tracer.count("serve.alerts_published", added)
        return added

    def poll_alerts(self, subscription_id: str) -> list[Alert]:
        """New matching alerts for one subscription (each id once)."""
        with self._lock:
            subscription = self._subscriptions.get(subscription_id)
            if subscription is None:
                raise KeyError(
                    f"unknown subscription {subscription_id!r}"
                )
            fresh = [
                alert
                for alert in self._alert_log
                if alert.alert_id not in subscription.delivered
                and subscription.matches(alert)
            ]
            subscription.delivered.update(
                alert.alert_id for alert in fresh
            )
        self.tracer.emit(
            "subscription_polled",
            subscription_id=subscription_id,
            n_alerts=len(fresh),
        )
        return fresh

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """One-call portal health snapshot (bench + gauges source)."""
        cache = self.cache.stats()
        snapshot = self.shards.snapshot
        stats = {
            "generation": snapshot.generation,
            "n_docs": snapshot.n_docs,
            "shard_docs": snapshot.shard_sizes(),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_hit_rate": cache.hit_rate,
            "cache_evictions": cache.evictions,
            "cache_stale_reads": cache.stale_reads,
            "queue_depth": self.admission.pending,
            "subscriptions": len(self._subscriptions),
            "alerts_held": len(self._alert_log),
        }
        if self.replicas is not None:
            stats["replicas"] = self.replicas.stats()
        return stats

    def close(self) -> None:
        self.workers.shutdown()

    def __enter__(self) -> "AlertPortal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
