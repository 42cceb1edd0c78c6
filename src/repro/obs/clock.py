"""Clock abstraction: monotonic wall-time, swappable for tests.

A run has one :class:`Clock`, chosen at ``Tracer(clock=)`` and read
everywhere as ``tracer.clock`` — spans, events, windows, SLO and health
verdicts, cache TTLs, token buckets, deadlines and portal latencies —
so tests can substitute a :class:`FakeClock` and assert *exact*
durations: no ``time.sleep``, no tolerance windows, no flakiness.
Production code uses :class:`MonotonicClock`, which wraps
:func:`time.perf_counter` (a monotonic, high-resolution counter immune
to wall-clock adjustments); this module is the only one that reads it.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything with a monotonic ``now() -> float`` (seconds)."""

    def now(self) -> float:  # pragma: no cover - protocol
        ...


class MonotonicClock:
    """The real thing: seconds from :func:`time.perf_counter`."""

    __slots__ = ()

    def now(self) -> float:
        return time.perf_counter()


class FakeClock:
    """A hand-cranked clock for deterministic timing tests.

    Time only moves when :meth:`advance` (or ``tick``) is called, so a
    test controls exactly how long every span "takes"::

        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("stage"):
            clock.advance(2.5)
        assert tracer.roots[0].duration == 2.5
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward; negative steps are rejected (monotonic)."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        self._now += seconds

    tick = advance
