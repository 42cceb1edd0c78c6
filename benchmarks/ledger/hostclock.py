"""Operation timing, corrected for the speed of a shared host.

The reference machine is a 2-vCPU KVM guest whose CPU speed swings by up
to 1.8x from one second to the next and drifts over minutes with its
neighbours' load.  Ten runs of the same code then spread by up to half
their median, far wider than any bound the benchmark may set.  So every
timed interval is paired with a probe: a fixed pure-Python loop timed on
the same thread, between operations, at least every
:data:`PROBE_EVERY_S`.  An interval's seconds are scaled by
``REFERENCE_PROBE_S / probe``, where ``probe`` is the mean of the probe
taken just before it and the probe taken just after it.  The result is
the interval's length at the reference machine's uncontended speed: the
wall time a user of an idle reference machine would see.  The raw wall
times stay available through :meth:`HostClock.raw`.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
from collections import defaultdict
from time import perf_counter

#: Seconds :func:`probe_once` takes on the reference machine (Intel Xeon
#: KVM guest, 2 vCPUs, CPython 3.11) when the host is uncontended.
REFERENCE_PROBE_S = 0.0007
#: Longest gap between probes while operations run.
PROBE_EVERY_S = 0.2


def probe_once() -> float:
    """Seconds of a fixed integer loop, best of two (no allocation)."""
    best = float("inf")
    for _ in range(2):
        started = perf_counter()
        total = 0
        for i in range(20_000):
            total += i
        best = min(best, perf_counter() - started)
    return best


class Timed:
    """One timed operation: a list of (start, end) segments."""

    def __init__(self, clock: "HostClock") -> None:
        self.clock = clock
        self.segments: list[tuple[float, float]] = []
        self._started = perf_counter()

    def split(self) -> None:
        """End a segment, probe the host, start the next segment.

        For long single-threaded operations, so that each part is
        corrected by probes taken close to it.
        """
        self.segments.append((self._started, perf_counter()))
        self.clock.probe()
        self._started = perf_counter()

    def close(self) -> None:
        self.segments.append((self._started, perf_counter()))


class HostClock:
    """Times operations by kind and probes host speed between them."""

    def __init__(self, calls=None) -> None:
        #: The run's :class:`calltrace.CallTracer`, which marks each op.
        self.calls = calls
        #: (start, end, probe seconds) in time order.
        self.probes: list[tuple[float, float, float]] = []
        self.operations: dict[str, list[Timed]] = defaultdict(list)

    def probe(self) -> None:
        """Sample host speed now; call only while no timed work runs."""
        started = perf_counter()
        seconds = probe_once()
        self.probes.append((started, perf_counter(), seconds))

    def pace(self) -> None:
        """Probe if the last probe is older than :data:`PROBE_EVERY_S`."""
        if not self.probes or perf_counter() - self.probes[-1][1] >= (
            PROBE_EVERY_S
        ):
            self.probe()

    @contextlib.contextmanager
    def time(self, kind: str = "op", op_id=None):
        """Time the block as one operation of ``kind``; yields its
        :class:`Timed`.  With ``op_id`` the block is also one traced op.
        """
        scope = (
            self.calls.op(op_id)
            if self.calls is not None and op_id is not None
            else contextlib.nullcontext()
        )
        with scope:
            timed = Timed(self)
            try:
                yield timed
            finally:
                timed.close()
                self.operations[kind].append(timed)

    def raw(self, kind: str) -> list[float]:
        """Wall seconds of every operation of ``kind``."""
        return [
            sum(end - start for start, end in timed.segments)
            for timed in self.operations[kind]
        ]

    def seconds(self, kind: str) -> list[float]:
        """Seconds of every operation of ``kind`` at the reference speed."""
        starts = [start for start, _, _ in self.probes]
        ends = [end for _, end, _ in self.probes]

        def scaled(start: float, end: float) -> float:
            before = bisect.bisect_right(ends, start) - 1
            after = bisect.bisect_left(starts, end)
            around = [
                self.probes[index][2]
                for index in (before, after)
                if 0 <= index < len(self.probes)
            ]
            return (end - start) * REFERENCE_PROBE_S / statistics.fmean(around)

        return [
            sum(scaled(start, end) for start, end in timed.segments)
            for timed in self.operations[kind]
        ]

    def host_factor(self) -> float:
        """Median probe over the reference probe: 1.0 on an idle host."""
        return statistics.median(
            seconds for _, _, seconds in self.probes
        ) / REFERENCE_PROBE_S
