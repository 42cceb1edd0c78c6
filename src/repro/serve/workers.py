"""Query worker pool: bounded threads, coalescing, deadlines.

A :class:`WorkerPool` owns a ``ThreadPoolExecutor`` and runs one
caller-supplied function per request.  Two serving behaviours sit on
top of the raw pool:

* **request coalescing** — identical in-flight requests (same key)
  share one execution and one result; under a thundering herd of the
  same popular query the index is hit once, not N times;
* **per-request deadlines** — a request carries an absolute deadline
  on the tracer's clock; if a worker picks it up past its deadline the
  work is skipped and the caller gets a ``deadline_exceeded`` outcome
  instead of a late answer nobody wants.

Failures never escape as exceptions: worker errors are captured into
the :class:`WorkOutcome`, so one poisoned query cannot kill a serving
thread.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs.tracer import NULL_TRACER, AnyTracer

OK = "ok"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"


@dataclass(frozen=True)
class WorkOutcome:
    """What one pooled execution produced (never an exception)."""

    status: str  # OK | DEADLINE_EXCEEDED | ERROR
    value: object = None
    error: str = ""
    #: How many callers shared this execution (1 = no coalescing).
    joiners: int = 1

    @property
    def ok(self) -> bool:
        return self.status == OK


class WorkerPool:
    """Deduplicating thread pool for query/alert work."""

    def __init__(
        self,
        worker_fn,
        max_workers: int = 4,
        tracer: AnyTracer | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.worker_fn = worker_fn
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="serve-worker"
        )
        self._inflight: dict[object, Future] = {}
        self._joiners: dict[object, int] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- submission ------------------------------------------------------------

    def submit(self, key: object, deadline: float | None = None) -> Future:
        """Run ``worker_fn(key)`` on the pool; coalesce duplicate keys.

        Returns a future resolving to a :class:`WorkOutcome`.  A second
        ``submit`` of the same key while the first is in flight returns
        the *same* future (the coalesced execution's deadline — that of
        the first submitter — governs; joiners accepted a shared ride).
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._joiners[key] = self._joiners.get(key, 1) + 1
                self.tracer.count("serve.coalesced")
                return existing
            future: Future = self._executor.submit(
                self._run, key, deadline
            )
            self._inflight[key] = future
            self._joiners[key] = 1
            return future

    def execute(
        self, key: object, deadline: float | None = None
    ) -> WorkOutcome:
        """Blocking convenience: submit and wait for the outcome."""
        return self.submit(key, deadline=deadline).result()

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- execution -------------------------------------------------------------

    def _run(self, key: object, deadline: float | None) -> WorkOutcome:
        try:
            if (
                deadline is not None
                and self.tracer.clock.now() > deadline
            ):
                self.tracer.count("serve.deadline_exceeded")
                return WorkOutcome(
                    status=DEADLINE_EXCEEDED,
                    error="deadline passed before execution",
                    joiners=self._joiner_count(key),
                )
            value = self.worker_fn(key)
            return WorkOutcome(
                status=OK, value=value, joiners=self._joiner_count(key)
            )
        except Exception as exc:  # worker bugs become outcomes
            self.tracer.count("serve.worker_errors")
            return WorkOutcome(
                status=ERROR,
                error=f"{type(exc).__name__}: {exc}",
                joiners=self._joiner_count(key),
            )
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                self._joiners.pop(key, None)

    def _joiner_count(self, key: object) -> int:
        with self._lock:
            return self._joiners.get(key, 1)
