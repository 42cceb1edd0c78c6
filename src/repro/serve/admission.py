"""Admission control: per-client token buckets + a bounded queue.

Overload must degrade, never cascade.  Requests pass two gates before
touching the index:

1. a per-client :class:`TokenBucket` (``rate`` tokens/second on the
   tracer's clock, ``burst`` capacity) — one hot client cannot starve
   the rest;
2. a global bounded admission count (``max_pending`` requests admitted
   but not yet released) — the explicit backpressure valve.  When the
   queue is full, the decision is a *value* (``Rejected`` with reason
   ``queue_full``), never an exception and never an unbounded queue.

The portal turns a rejection into a ``429``-style response, serving a
stale cached result instead when one exists.  Counters
(``serve.admitted``, ``serve.rejected``, ``serve.rejected[reason]``)
feed the Prometheus export so overload is visible from outside.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.obs.clock import Clock
from repro.obs.tracer import NULL_TRACER, AnyTracer

RATE_LIMITED = "rate_limited"
QUEUE_FULL = "queue_full"


class TokenBucket:
    """Classic token bucket on its controller's (possibly fake) clock.

    Starts full.  ``try_acquire`` refills ``rate * elapsed`` tokens
    (capped at ``burst``) and admits iff at least one whole token is
    available — so over any window the bucket admits at most
    ``burst + rate * window`` requests, the bound the property suite
    pins down.

    A bucket has no lock of its own: the :class:`AdmissionController`
    that owns it reads and changes it only under the controller's lock,
    so one admission takes its token and its queue slot in one critical
    section.
    """

    def __init__(self, rate: float, burst: float, clock: Clock) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._tokens = self.burst
        self._last_refill = clock.now()

    @property
    def tokens(self) -> float:
        """Current balance (refilled to now); for tests/reports."""
        self._refill(self.clock.now())
        return self._tokens

    def try_acquire(self, n: float = 1.0, now: float | None = None) -> bool:
        """Take ``n`` tokens if available; never blocks.

        ``now`` is a reading of :attr:`clock` the caller already took.
        """
        self._refill(self.clock.now() if now is None else now)
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def rebase(self, clock: Clock) -> None:
        """Move to ``clock``, keeping the balance refilled so far."""
        self._refill(self.clock.now())
        self.clock = clock
        self._last_refill = clock.now()

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate
            )
        self._last_refill = max(self._last_refill, now)


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission attempt — a value, not a raise."""

    admitted: bool
    reason: str = ""  # RATE_LIMITED | QUEUE_FULL when rejected

    def __bool__(self) -> bool:
        return self.admitted


ADMITTED = AdmissionDecision(admitted=True)


class AdmissionController:
    """Per-client rate limiting plus a global bounded pending count.

    ``quotas`` layers per-tenant fairness over the shared queue: a
    quota of ``0.25`` for client ``"a"`` *reserves* ``0.25 *
    max_pending`` queue slots that only ``"a"`` can occupy.  Clients
    first fill their reservation, then compete for the unreserved
    remainder — so a bursting tenant can exhaust the shared slots but
    can never push another tenant below its reserved floor (the
    fairness regression test pins the admitted shares).
    """

    def __init__(
        self,
        rate: float = 50.0,
        burst: float = 20.0,
        max_pending: int = 64,
        tracer: AnyTracer | None = None,
        quotas: Mapping[str, float] | None = None,
    ) -> None:
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.rate = rate
        self.burst = burst
        self.max_pending = max_pending
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.quotas = dict(quotas or {})
        for client_id, quota in self.quotas.items():
            if not 0.0 <= quota <= 1.0:
                raise ValueError(
                    f"quota for {client_id!r} must be in [0, 1]"
                )
        self._reserved = {
            client_id: int(quota * max_pending)
            for client_id, quota in self.quotas.items()
        }
        reserved_total = sum(self._reserved.values())
        if reserved_total > max_pending:
            raise ValueError(
                "quota reservations exceed max_pending "
                f"({reserved_total} > {max_pending})"
            )
        self._shared_capacity = max_pending - reserved_total
        self._pending_by_client: Counter[str] = Counter()
        self._pending = 0

    @property
    def tracer(self) -> AnyTracer:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: AnyTracer) -> None:
        """Switch handles; buckets already made move to its clock."""
        with self._lock:
            self._tracer = tracer
            for bucket in self._buckets.values():
                bucket.rebase(tracer.clock)

    # -- introspection ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Admitted-but-unreleased requests (the queue depth gauge)."""
        with self._lock:
            return self._pending

    def bucket_of(self, client_id: str) -> TokenBucket:
        """``client_id``'s bucket, made on its first request.

        A known client's bucket is found without the lock (one dict
        read); only making a bucket takes it.
        """
        bucket = self._buckets.get(client_id)
        if bucket is None:
            with self._lock:
                bucket = self._buckets.get(client_id)
                if bucket is None:
                    bucket = TokenBucket(
                        self.rate, self.burst, self.tracer.clock
                    )
                    self._buckets[client_id] = bucket
        return bucket

    # -- the gate --------------------------------------------------------------

    def admit(
        self, client_id: str, now: float | None = None
    ) -> AdmissionDecision:
        """Try to admit one request for ``client_id``.

        The token and the queue slot are taken under one lock; a
        request refused a slot has still spent its token.  ``now`` is
        a reading of the tracer's clock the caller already took.  The
        caller must :meth:`release` every admitted request exactly
        once (the portal does this in a ``finally``).
        """
        bucket = self.bucket_of(client_id)
        with self._lock:
            if not bucket.try_acquire(now=now):
                reason = RATE_LIMITED
            elif not self._try_take_slot(client_id):
                reason = QUEUE_FULL
            else:
                reason = ""
        if reason:
            self.tracer.count("serve.rejected")
            self.tracer.count(f"serve.rejected[{reason}]")
            return AdmissionDecision(False, reason)
        self.tracer.count("serve.admitted")
        return ADMITTED

    def _try_take_slot(self, client_id: str) -> bool:
        """Claim a queue slot (reserved first); caller holds the lock."""
        if self._pending >= self.max_pending:
            return False
        if self.quotas:
            mine = self._pending_by_client[client_id]
            if mine >= self._reserved.get(client_id, 0):
                # Out of reservation: compete for the shared slots.
                shared_used = sum(
                    max(
                        0,
                        count - self._reserved.get(client, 0),
                    )
                    for client, count in self._pending_by_client.items()
                )
                if shared_used >= self._shared_capacity:
                    return False
            self._pending_by_client[client_id] += 1
        self._pending += 1
        return True

    def release(self, client_id: str | None = None) -> None:
        """Return one admitted slot; must pair 1:1 with admissions.

        When quotas are configured, callers must pass the same
        ``client_id`` they admitted with, so the per-tenant occupancy
        that fairness decisions read stays truthful.
        """
        with self._lock:
            if self._pending <= 0:
                raise RuntimeError(
                    "release() without a matching admit()"
                )
            self._pending -= 1
            if self.quotas and client_id is not None:
                if self._pending_by_client[client_id] > 0:
                    self._pending_by_client[client_id] -= 1
