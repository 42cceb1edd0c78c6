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
from typing import NamedTuple

from repro.obs.tracer import NULL_TRACER, AnyTracer

OK = "ok"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"


class WorkOutcome(NamedTuple):
    """What one execution produced (never an exception)."""

    status: str  # OK | DEADLINE_EXCEEDED | ERROR
    value: object = None
    error: str = ""
    #: How many callers shared this execution (1 = no coalescing).
    joiners: int = 1

    @property
    def ok(self) -> bool:
        return self.status == OK


#: What a leader returns if its worker escaped before producing one.
_INTERRUPTED = WorkOutcome(ERROR, error="worker interrupted")


class _Flight:
    """The callers waiting for one key's execution.

    Made by the first caller that joins a key's leader, so a flight
    nobody joins (every cold query) builds no :class:`threading.Event`:
    it is only its key in the pool's table.
    """

    __slots__ = ("done", "joiners", "outcome")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.joiners = 1  # the leader
        self.outcome: WorkOutcome | None = None


class WorkerPool:
    """Single-flight executor for query/alert work."""

    def __init__(
        self, worker_fn, tracer: AnyTracer | None = None
    ) -> None:
        self.worker_fn = worker_fn
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Keys in flight -> their joiners (``None`` until one joins).
        self._flights: dict[object, _Flight | None] = {}
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
            joined = key in self._flights
            if joined:
                flight = self._flights[key]
                if flight is None:
                    flight = self._flights[key] = _Flight()
                flight.joiners += 1
                self.tracer.count("serve.coalesced")
            else:
                self._flights[key] = None
        if joined:
            flight.done.wait()
            return flight.outcome
        outcome = _INTERRUPTED
        try:
            outcome = self._run(key, deadline)
        finally:
            # Published even if the worker escaped, so no joiner hangs;
            # once the key is gone no caller can join this flight.
            with self._lock:
                flight = self._flights.pop(key)
                if flight is not None:
                    outcome = outcome._replace(joiners=flight.joiners)
                    flight.outcome = outcome
            if flight is not None:
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
                DEADLINE_EXCEEDED, error="deadline passed before execution"
            )
        try:
            return WorkOutcome(OK, self.worker_fn(key))
        except Exception as exc:  # worker bugs become outcomes
            self.tracer.count("serve.worker_errors")
            return WorkOutcome(ERROR, error=f"{type(exc).__name__}: {exc}")
