"""Hedged query fan-out over replica groups, on simulated ticks.

:class:`HedgedRouter` is the read path of the simulated cluster in
:mod:`repro.serve.replication`: every query scatters to one replica
per shard group, each replica searches its
:class:`~repro.serve.shards.ShardView` with the generation's global
BM25 statistics, and the per-shard top-k lists merge into exactly the
ranking :meth:`~repro.serve.shards.IndexSnapshot.search` returns.  What
the router adds is *tail-latency discipline* under faults:

* **generation pinning** — before dispatch, the router picks one
  target generation every group can serve (the minimum over groups of
  the newest generation an up replica holds) and answers entirely from
  it, so a response is never a mix of generations even while replicas
  crash and catch up mid-query;
* **circuit breaking** — each replica carries a
  :class:`~repro.robustness.fetcher.CircuitBreaker`; the router only
  dispatches where the breaker allows, records every outcome, and a
  down replica therefore stops costing timeouts after
  ``failure_threshold`` discoveries;
* **hedged requests** — when the chosen primary has not answered
  within ``hedge_after`` ticks, one (and only one) hedge is issued to
  the next candidate; the response is whichever answers first.  At
  most two requests are ever in flight for one query (the property
  suite pins this), and fast failures fail over serially without
  spending the hedge;
* **degraded-but-correct reads** — when a whole group is down (or
  breakered out, or cannot serve the target generation), the router
  answers that shard from the group's shipping log at the *same*
  pinned generation, flags the response ``degraded=True``, and emits a
  ``degraded_read`` event.  A shard that no source can serve at that
  generation is listed in ``missing_shards``, and the answer is the
  generation's full ranking restricted to the other shards.  Degraded
  responses are never silently stale: any response whose generation
  trails the latest ship is flagged too.

Time is simulated: replica service times are deterministic sha256
draws (a pure function of ``(seed, replica, query)``), optionally
shaped by a :class:`~repro.robustness.faults.FaultProfile`
(``dead_rate``/``transient_rate``/``slow_rate`` become per-request
server faults), and a down replica times out after ``fail_after``
ticks.  On a :class:`~repro.obs.clock.FakeClock` tracer the router
advances the clock by each query's simulated latency, which is what
drives breaker cool-offs, the SLO engine's windows and the chaos
suites' kill/restore schedules.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.obs.clock import FakeClock
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.robustness.fetcher import CircuitBreaker
from repro.robustness.faults import FaultProfile, _unit
from repro.search.engine import SearchResult
from repro.serve.replication import Replica, ReplicaGroup, ReplicaSet

#: Simulated ticks for replica service times: a healthy replica
#: answers in ``[_BASE_COST, _BASE_COST + _COST_SPREAD)``.
_BASE_COST = 0.002
_COST_SPREAD = 0.006
#: Fast-failure costs: an error response is quick, a wrong-generation
#: NACK quicker still (neither counts against the breaker the way a
#: timeout does — a NACK is not a health signal).
_ERROR_COST = 0.004
_NACK_COST = 0.002


class RouteResult(NamedTuple):
    """One routed answer plus how the cluster produced it."""

    results: tuple[SearchResult, ...]
    generation: int
    degraded: bool = False
    hedges: int = 0
    attempts: int = 0
    max_inflight: int = 1
    #: Simulated ticks; ``None`` for a local read, timed by its caller.
    latency: float | None = None
    #: Shards no replica or shipping log could answer at ``generation``.
    missing_shards: tuple[int, ...] = ()


@dataclass(frozen=True)
class _GroupServe:
    """One group's contribution to a routed query."""

    view: object | None  # None -> every candidate failed
    duration: float
    attempts: int
    #: One hedge opens a second in-flight request.
    hedges: int = 0
    max_inflight: int = 1


@dataclass(frozen=True)
class _Attempt:
    """Simulated outcome of one request to one replica."""

    ok: bool
    duration: float
    #: Whether a failure should count against the replica's breaker.
    breaker_failure: bool = False


class HedgedRouter:
    """Fan-out with hedging, breakers, and pinned generations."""

    def __init__(
        self,
        replicas: ReplicaSet,
        hedge_after: float = 0.05,
        fail_after: float = 0.8,
        hedging: bool = True,
        fault_profile: FaultProfile | None = None,
        seed: int = 0,
        tracer: AnyTracer | None = None,
    ) -> None:
        if hedge_after <= 0:
            raise ValueError("hedge_after must be positive")
        if fail_after <= hedge_after:
            raise ValueError("fail_after must exceed hedge_after")
        self.replicas = replicas
        self.hedge_after = hedge_after
        self.fail_after = fail_after
        self.hedging = hedging
        self.fault_profile = fault_profile
        self.seed = seed
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: (replica_id, query) -> request count, for first-request
        #: transient faults.
        self._tries: dict[tuple[str, str], int] = {}
        #: Serializes routing: breaker state and the simulated clock
        #: advance must move together.
        self._lock = threading.Lock()

    # -- the read path ---------------------------------------------------------

    def route(self, query: str, top_k: int = 10) -> RouteResult:
        """Answer one query from the cluster; never raises."""
        with self._lock:
            clock = self.tracer.clock
            now = clock.now()
            latest = self.replicas.latest_generation
            target = self._target_generation(latest)
            degraded = 0 < target < latest
            if degraded:
                self.tracer.emit(
                    "degraded_read", source="stale_replica"
                )

            merged: list[SearchResult] = []
            missing: list[int] = []
            duration = 0.0
            attempts = hedges = 0
            max_inflight = 1
            for group in self.replicas.groups:
                serve = self._serve_group(group, query, target, now)
                attempts += serve.attempts
                hedges += serve.hedges
                max_inflight = max(max_inflight, serve.max_inflight)
                duration = max(duration, serve.duration)
                view = serve.view
                if view is None:
                    # The group gave no answer: serve its shard from
                    # the shipping log at the same pinned generation.
                    view = group.shipped_view(target)
                    degraded = True
                    self.tracer.count("serve.degraded_reads")
                    self.tracer.emit(
                        "degraded_read",
                        source="replica_group",
                        shard=group.shard,
                    )
                if view is None:
                    missing.append(group.shard)
                elif top_k > 0:
                    merged.extend(view.search(query, top_k=top_k))
            merged.sort(key=lambda result: (-result.score, result.doc_key))

            if hedges:
                self.tracer.count("serve.hedged_queries")
            if isinstance(clock, FakeClock):
                clock.advance(duration)
            return RouteResult(
                results=tuple(merged[:top_k]),
                generation=target,
                degraded=degraded,
                hedges=hedges,
                attempts=attempts,
                max_inflight=max_inflight,
                latency=duration,
                missing_shards=tuple(missing),
            )

    # -- target selection ------------------------------------------------------

    def _target_generation(self, latest: int) -> int:
        """Newest generation every group can serve consistently.

        Groups with no up replica do not lower the target — they are
        served from the shipping log, which holds every recent
        generation.
        """
        target = latest
        for group in self.replicas.groups:
            if group.up_replicas():
                target = min(target, group.best_generation())
        return target

    # -- one group -------------------------------------------------------------

    def _serve_group(
        self, group: ReplicaGroup, query: str, target: int, now: float
    ) -> _GroupServe:
        candidates = [
            replica
            for replica in group.replicas
            if replica.breaker.allow(now)
        ]
        if candidates:
            rotation = int(
                _unit(self.seed, "primary", group.shard, query)
                * len(candidates)
            ) % len(candidates)
            candidates = candidates[rotation:] + candidates[:rotation]
        if self.hedging:
            return self._serve_hedged(
                group, candidates, query, target, now
            )
        return self._serve_serial(candidates, query, target, now)

    def _serve_serial(
        self,
        candidates: list[Replica],
        query: str,
        target: int,
        now: float,
    ) -> _GroupServe:
        """Unhedged dispatch: one request at a time, failover on error."""
        elapsed = 0.0
        attempts = 0
        for replica in candidates:
            outcome = self._attempt(replica, query, target)
            attempts += 1
            elapsed += outcome.duration
            if outcome.ok:
                self._record_success(replica)
                return _GroupServe(replica.view_at(target), elapsed, attempts)
            self._record_failure(
                replica, now + elapsed, outcome.breaker_failure
            )
        return _GroupServe(None, elapsed, attempts)

    def _serve_hedged(
        self,
        group: ReplicaGroup,
        candidates: list[Replica],
        query: str,
        target: int,
        now: float,
    ) -> _GroupServe:
        """Dispatch with one hedge: at most two requests in flight.

        Fast failures (error responses quicker than the hedge
        deadline) fail over serially without spending the hedge; only
        a *silent* primary — still pending at ``hedge_after`` — opens
        the second in-flight slot.
        """
        started = 0.0
        attempts = 0
        index = 0
        primary = None
        primary_outcome = None
        while index < len(candidates):
            replica = candidates[index]
            outcome = self._attempt(replica, query, target)
            attempts += 1
            index += 1
            if outcome.ok and outcome.duration <= self.hedge_after:
                self._record_success(replica)
                return _GroupServe(
                    view=replica.view_at(target),
                    duration=started + outcome.duration,
                    attempts=attempts,
                )
            if not outcome.ok and outcome.duration <= self.hedge_after:
                started += outcome.duration
                self._record_failure(
                    replica, now + started, outcome.breaker_failure
                )
                continue
            primary = replica
            primary_outcome = outcome
            break
        if primary is None:
            # Every candidate failed fast (or there were none).
            return _GroupServe(None, started, attempts)

        primary_done = started + primary_outcome.duration
        rest = candidates[index:]
        if not rest:
            # Nobody to hedge to: wait the primary out.
            if primary_outcome.ok:
                self._record_success(primary)
                view = primary.view_at(target)
            else:
                self._record_failure(
                    primary, now + primary_done,
                    primary_outcome.breaker_failure,
                )
                view = None
            return _GroupServe(view, primary_done, attempts)

        # The primary is slow: launch exactly one hedge track at the
        # deadline.  The track fails over serially, so in-flight
        # requests never exceed primary + one hedge.
        hedge_started = started + self.hedge_after
        self.tracer.emit(
            "query_hedged",
            query=query,
            shard=group.shard,
            primary=primary.replica_id,
            hedge=rest[0].replica_id,
        )
        hedge_done = hedge_started
        hedge_view = None
        for replica in rest:
            outcome = self._attempt(replica, query, target)
            attempts += 1
            hedge_done += outcome.duration
            if outcome.ok:
                self._record_success(replica)
                hedge_view = replica.view_at(target)
                break
            self._record_failure(
                replica, now + hedge_done, outcome.breaker_failure
            )

        if primary_outcome.ok:
            self._record_success(primary)
        else:
            self._record_failure(
                primary, now + primary_done,
                primary_outcome.breaker_failure,
            )

        finishes = []
        if primary_outcome.ok:
            finishes.append((primary_done, primary.view_at(target)))
        if hedge_view is not None:
            finishes.append((hedge_done, hedge_view))
        if not finishes:
            return _GroupServe(
                view=None,
                duration=max(primary_done, hedge_done),
                attempts=attempts,
                hedges=1,
                max_inflight=2,
            )
        duration, view = min(finishes, key=lambda pair: pair[0])
        return _GroupServe(
            view=view,
            duration=duration,
            attempts=attempts,
            hedges=1,
            max_inflight=2,
        )

    # -- one replica -----------------------------------------------------------

    def _attempt(
        self, replica: Replica, query: str, target: int
    ) -> _Attempt:
        """Deterministic simulated outcome of one replica request."""
        if replica.down:
            # The router cannot see process state; it discovers a dead
            # replica the expensive way, by timing out.
            return _Attempt(
                ok=False,
                duration=self.fail_after,
                breaker_failure=True,
            )
        if not replica.serves(target):
            return _Attempt(ok=False, duration=_NACK_COST)
        tries_key = (replica.replica_id, query)
        tries = self._tries.get(tries_key, 0)
        self._tries[tries_key] = tries + 1
        profile = self.fault_profile
        if profile is not None:
            if (
                _unit(self.seed, "replica_dead", replica.replica_id, query)
                < profile.dead_rate
            ):
                return _Attempt(
                    ok=False,
                    duration=_ERROR_COST,
                    breaker_failure=True,
                )
            if tries == 0 and (
                _unit(
                    self.seed,
                    "replica_transient",
                    replica.replica_id,
                    query,
                )
                < profile.transient_rate
            ):
                return _Attempt(
                    ok=False,
                    duration=_ERROR_COST,
                    breaker_failure=True,
                )
        duration = _BASE_COST + _COST_SPREAD * _unit(
            self.seed, "replica_lat", replica.replica_id, query
        )
        if profile is not None and (
            _unit(self.seed, "replica_slow", replica.replica_id, query)
            < profile.slow_rate
        ):
            duration = min(
                max(duration, 4.0 * self.hedge_after), self.fail_after
            )
        return _Attempt(ok=True, duration=duration)

    # -- breaker bookkeeping ---------------------------------------------------

    def _record_success(self, replica: Replica) -> None:
        was = replica.breaker.state
        replica.breaker.record_success()
        if was != CircuitBreaker.CLOSED:
            self.tracer.emit(
                "breaker_close", host=replica.replica_id
            )

    def _record_failure(
        self, replica: Replica, at: float, counts: bool
    ) -> None:
        if not counts:
            return
        was = replica.breaker.state
        replica.breaker.record_failure(at)
        if (
            replica.breaker.state == CircuitBreaker.OPEN
            and was != CircuitBreaker.OPEN
        ):
            self.tracer.count("serve.replica_breaker_opens")
            self.tracer.emit(
                "breaker_open",
                host=replica.replica_id,
                failures=replica.breaker.failures,
            )
