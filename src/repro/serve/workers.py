"""Query worker: single-flight execution, coalescing, deadlines.

A :class:`WorkerPool` runs one caller-supplied function per request, on
the thread that asked for it: a cache-miss query costs one call, not a
hop to another thread and back.  Two serving behaviours sit on top:

* **request coalescing** — identical in-flight requests (same key)
  share one execution and one result; under a thundering herd of the
  same popular query the index is hit once, not N times.  The first
  caller of a key (the leader) runs it; later callers wait for the
  leader's outcome;
* **per-request deadlines** — a request carries an absolute deadline
  on the tracer's clock; a request already past its deadline when it
  arrives is skipped and the caller gets a ``deadline_exceeded``
  outcome instead of a late answer nobody wants.

Concurrency is bounded by the callers, not here: the portal's
:class:`~repro.serve.admission.AdmissionController` admits at most
``max_pending`` requests at once.

Failures never escape as exceptions: worker errors are captured into
the :class:`WorkOutcome`, so one poisoned query cannot kill a serving
thread, and a leader always publishes an outcome to its joiners.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.obs.tracer import NULL_TRACER, AnyTracer

OK = "ok"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"


@dataclass(frozen=True)
class WorkOutcome:
    """What one execution produced (never an exception)."""

    status: str  # OK | DEADLINE_EXCEEDED | ERROR
    value: object = None
    error: str = ""
    #: How many callers shared this execution (1 = no coalescing).
    joiners: int = 1

    @property
    def ok(self) -> bool:
        return self.status == OK


class _Flight:
    """One key's execution in progress: its callers wait on ``done``."""

    __slots__ = ("done", "joiners", "outcome")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.joiners = 1
        self.outcome: WorkOutcome | None = None


class WorkerPool:
    """Single-flight executor for query/alert work."""

    def __init__(
        self, worker_fn, tracer: AnyTracer | None = None
    ) -> None:
        self.worker_fn = worker_fn
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._flights: dict[object, _Flight] = {}
        self._lock = threading.Lock()
        self._closed = False

    def execute(
        self, key: object, deadline: float | None = None
    ) -> WorkOutcome:
        """Run ``worker_fn(key)`` on this thread; coalesce duplicate keys.

        A call whose key is already in flight waits for that execution
        and returns its outcome (the leader's deadline governs; joiners
        accepted a shared ride).  The deadline is checked on arrival.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        with self._lock:
            flight = self._flights.get(key)
            joined = flight is not None
            if joined:
                flight.joiners += 1
                self.tracer.count("serve.coalesced")
            else:
                flight = self._flights[key] = _Flight()
        if joined:
            flight.done.wait()
            return flight.outcome
        outcome = WorkOutcome(status=ERROR, error="worker interrupted")
        try:
            outcome = self._run(key, deadline)
        finally:
            # Published even if the worker escaped, so no joiner hangs;
            # once the key is gone no caller can join this flight.
            with self._lock:
                del self._flights[key]
                if flight.joiners > 1:
                    outcome = replace(outcome, joiners=flight.joiners)
                flight.outcome = outcome
            flight.done.set()
        return outcome

    def shutdown(self) -> None:
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def _run(self, key: object, deadline: float | None) -> WorkOutcome:
        if deadline is not None and self.tracer.clock.now() > deadline:
            self.tracer.count("serve.deadline_exceeded")
            return WorkOutcome(
                status=DEADLINE_EXCEEDED,
                error="deadline passed before execution",
            )
        try:
            return WorkOutcome(status=OK, value=self.worker_fn(key))
        except Exception as exc:  # worker bugs become outcomes
            self.tracer.count("serve.worker_errors")
            return WorkOutcome(
                status=ERROR, error=f"{type(exc).__name__}: {exc}"
            )
