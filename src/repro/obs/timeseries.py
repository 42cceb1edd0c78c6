"""Windowed time-series telemetry: fixed-memory rates and quantiles.

One-shot counters answer "how many, ever"; a long-running deployment
needs "how many, *lately*".  This module is that substrate:

* :class:`TimeSeries` — a fixed-memory ring of per-interval buckets
  (count, sum, min, max).  Recording is O(1); windowed queries
  (``rate``, ``window``) aggregate only the buckets whose interval
  falls inside the asked-for window, so stale buckets left behind by
  clock jumps are never counted.  Memory never grows, no matter how
  long the soak.
* :class:`P2Quantile` / :class:`QuantileSketch` — the P² streaming
  quantile algorithm (Jain & Chlamtac, 1985): five markers per tracked
  quantile, updated per observation, constant memory.  Small streams
  stay exact (a bounded buffer answers nearest-rank until the spill
  threshold), so toy runs and tests see the same numbers a raw list
  would give.
* :class:`Telemetry` — the hub: named series and sketches created on
  first use, all on the clock of the :class:`~repro.obs.tracer.Tracer`
  it is attached to.  Instrumented code reaches it as
  ``tracer.windows``; the telemetry-off path is one
  ``tracer.windows is not None`` check.

The SLO engine (:mod:`repro.obs.slo`) and the health monitor
(:mod:`repro.obs.health`) read exclusively through this layer.
"""

from __future__ import annotations

import math

from repro.obs.clock import Clock, MonotonicClock

#: Quantiles every sketch tracks by default — the serving/streaming
#: dashboards and the SLO engine read p50/p90/p95/p99.
DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)

#: Observations buffered exactly before a sketch spills to P² markers.
DEFAULT_EXACT_THRESHOLD = 128


def exact_quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (``0 <= q <= 1``)."""
    if not ordered:
        return 0.0
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


class P2Quantile:
    """One streaming quantile via the P² algorithm — constant memory.

    Five markers track (min, q/2, q, (1+q)/2, max); each observation
    shifts marker positions and parabolically adjusts heights.  Until
    five observations arrive the estimate is exact.
    """

    __slots__ = ("q", "_initial", "_heights", "_positions", "_desired",
                 "_increments")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self._initial: list[float] | None = []
        self._heights: list[float] = []
        self._positions: list[int] = []
        self._desired: list[float] = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value: float) -> None:
        value = float(value)
        if self._initial is not None:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1, 2, 3, 4, 5]
                self._desired = [1.0, 1.0 + 2.0 * self.q,
                                 1.0 + 4.0 * self.q, 3.0 + 2.0 * self.q,
                                 5.0]
                self._initial = None
            return

        heights = self._heights
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            for i in range(1, 5):
                if value < heights[i]:
                    cell = i - 1
                    break
        for i in range(cell + 1, 5):
            positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]

        for i in (1, 2, 3):
            drift = self._desired[i] - positions[i]
            if (drift >= 1.0 and positions[i + 1] - positions[i] > 1) or (
                drift <= -1.0 and positions[i - 1] - positions[i] < -1
            ):
                step = 1 if drift >= 0 else -1
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step * (h[i + step] - h[i]) / (n[i + step] - n[i])

    def value(self) -> float:
        """The current estimate (exact below five observations)."""
        if self._initial is not None:
            return exact_quantile(sorted(self._initial), self.q)
        return self._heights[2]


class QuantileSketch:
    """Bounded multi-quantile summary: exact small, P² large.

    Scalar aggregates (count, sum, min, max) are exact forever.  Raw
    values are buffered until ``exact_threshold`` so small streams
    answer nearest-rank exactly; past the threshold the buffer spills
    into one :class:`P2Quantile` per tracked quantile and memory stays
    constant from then on.  :meth:`quantile` answers tracked quantiles
    from their markers and interpolates other ranks through the
    monotone envelope ``(0, min) .. (q_i, marker_i) .. (1, max)``.
    """

    __slots__ = ("quantiles", "exact_threshold", "_exact", "_estimators",
                 "_count", "_total", "_min", "_max")

    def __init__(
        self,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    ) -> None:
        if not quantiles:
            raise ValueError("need at least one tracked quantile")
        if exact_threshold < 0:
            raise ValueError("exact_threshold must be >= 0")
        self.quantiles = tuple(sorted(float(q) for q in quantiles))
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError("quantiles must be in (0, 1)")
        self.exact_threshold = exact_threshold
        self._exact: list[float] | None = []
        self._estimators: dict[float, P2Quantile] = {}
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ------------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) >= self.exact_threshold:
                self._spill()
        else:
            for estimator in self._estimators.values():
                estimator.observe(value)

    def _spill(self) -> None:
        """Trade the exact buffer for constant-memory P² markers."""
        buffered = self._exact
        self._exact = None
        self._estimators = {q: P2Quantile(q) for q in self.quantiles}
        for value in buffered:
            for estimator in self._estimators.values():
                estimator.observe(value)

    # -- reading --------------------------------------------------------------

    @property
    def exact(self) -> bool:
        """Whether quantiles are still answered from raw values."""
        return self._exact is not None

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate quantile ``q`` in (0, 1); 0.0 on an empty sketch."""
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if not self._count:
            return 0.0
        if self._exact is not None:
            return exact_quantile(sorted(self._exact), q)
        # Monotone envelope over the tracked markers: P² estimators for
        # different quantiles are independent, so enforce ordering with
        # a running max before clamping into the exact [min, max] span.
        points: list[tuple[float, float]] = [(0.0, self._min)]
        floor = self._min
        for tracked in self.quantiles:
            estimate = self._estimators[tracked].value()
            floor = max(floor, min(estimate, self._max))
            points.append((tracked, floor))
        points.append((1.0, self._max))
        for (q_lo, v_lo), (q_hi, v_hi) in zip(points, points[1:]):
            if q_lo <= q <= q_hi:
                if q_hi == q_lo:
                    return v_hi
                frac = (q - q_lo) / (q_hi - q_lo)
                return v_lo + frac * (v_hi - v_lo)
        return self._max  # pragma: no cover - envelope spans (0, 1)

    def summary(self) -> dict[str, float]:
        payload = {
            "count": self._count,
            "total": self._total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }
        for q in self.quantiles:
            payload[f"p{q * 100:g}"] = self.quantile(q)
        return payload


class _Bucket:
    """One interval's aggregates; reused in place as the ring wraps."""

    __slots__ = ("index", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.reset(-1)

    def reset(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf


class WindowAggregate:
    """What one window of a :class:`TimeSeries` held."""

    __slots__ = ("seconds", "count", "total", "minimum", "maximum")

    def __init__(
        self,
        seconds: float,
        count: int = 0,
        total: float = 0.0,
        minimum: float = 0.0,
        maximum: float = 0.0,
    ) -> None:
        self.seconds = seconds
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    @property
    def rate(self) -> float:
        """Recorded count per second of window."""
        if self.seconds <= 0:
            return 0.0
        return self.count / self.seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "seconds": self.seconds,
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "rate": self.rate,
            "mean": self.mean,
        }


class TimeSeries:
    """Fixed-memory ring of per-interval buckets over a Clock.

    ``interval`` seconds per bucket, ``n_buckets`` buckets: capacity is
    their product and memory never exceeds it.  A bucket is lazily
    reset when its slot is revisited in a *later* interval, and
    windowed reads check each bucket's interval index against the
    asked-for window — so a FakeClock jumping hours ahead instantly
    expires everything without any sweeper.
    """

    __slots__ = ("name", "interval", "clock", "_buckets")

    def __init__(
        self,
        name: str = "",
        interval: float = 1.0,
        n_buckets: int = 600,
        clock: Clock | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if n_buckets < 1:
            raise ValueError("need at least one bucket")
        self.name = name
        self.interval = float(interval)
        self.clock = clock or MonotonicClock()
        self._buckets = [_Bucket() for _ in range(n_buckets)]

    # -- recording ------------------------------------------------------------

    def record(
        self, value: float = 1.0, n: int = 1, now: float | None = None
    ) -> None:
        """Add ``n`` occurrences of ``value`` to the current bucket.

        ``record()`` counts an event; ``record(latency)`` additionally
        folds the value into the bucket's sum/min/max so windowed mean
        and max work for measurements.
        """
        if now is None:
            now = self.clock.now()
        index = int(now // self.interval)
        bucket = self._buckets[index % len(self._buckets)]
        if bucket.index != index:
            bucket.reset(index)
        bucket.count += n
        bucket.total += value * n
        if value < bucket.minimum:
            bucket.minimum = value
        if value > bucket.maximum:
            bucket.maximum = value

    # -- reading --------------------------------------------------------------

    def window(
        self, seconds: float, now: float | None = None
    ) -> WindowAggregate:
        """Aggregate the trailing window ending at ``now``.

        The window is the ``ceil(seconds / interval)`` most recent
        buckets (current partial bucket included), clamped to the
        ring's capacity; its effective duration — used by ``rate`` — is
        that bucket count times the interval, so rates stay exact under
        FakeClock arithmetic.
        """
        if seconds <= 0:
            raise ValueError("window must be positive")
        if now is None:
            now = self.clock.now()
        span = min(
            len(self._buckets),
            max(1, math.ceil(seconds / self.interval)),
        )
        current = int(now // self.interval)
        first = current - span + 1
        aggregate = WindowAggregate(seconds=span * self.interval)
        minimum = math.inf
        maximum = -math.inf
        for bucket in self._buckets:
            if first <= bucket.index <= current and bucket.count:
                aggregate.count += bucket.count
                aggregate.total += bucket.total
                if bucket.minimum < minimum:
                    minimum = bucket.minimum
                if bucket.maximum > maximum:
                    maximum = bucket.maximum
        if aggregate.count:
            aggregate.minimum = minimum
            aggregate.maximum = maximum
        return aggregate

    def rate(self, seconds: float, now: float | None = None) -> float:
        return self.window(seconds, now=now).rate


class Telemetry:
    """Named windowed series and quantile sketches, one shared clock.

    ``record(name, ...)`` feeds a :class:`TimeSeries` (rates, windowed
    sums); ``observe(name, value)`` feeds the same-named series *and* a
    :class:`QuantileSketch` (lifetime percentiles).  Both create the
    metric on first use, like :class:`~repro.obs.metrics.Registry`.
    Every series runs on ``clock``, which the
    :class:`~repro.obs.tracer.Tracer` the hub is attached to sets.
    """

    def __init__(
        self,
        interval: float = 5.0,
        n_buckets: int = 720,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
        exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    ) -> None:
        self.clock: Clock = MonotonicClock()
        self.interval = interval
        self.n_buckets = n_buckets
        self.quantiles = tuple(quantiles)
        self.exact_threshold = exact_threshold
        self._series: dict[str, TimeSeries] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    # -- access ---------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(
                name,
                interval=self.interval,
                n_buckets=self.n_buckets,
                clock=self.clock,
            )
        return series

    def sketch(self, name: str) -> QuantileSketch:
        sketch = self._sketches.get(name)
        if sketch is None:
            sketch = self._sketches[name] = QuantileSketch(
                quantiles=self.quantiles,
                exact_threshold=self.exact_threshold,
            )
        return sketch

    @property
    def series_names(self) -> list[str]:
        return sorted(self._series)

    @property
    def sketch_names(self) -> list[str]:
        return sorted(self._sketches)

    # -- recording ------------------------------------------------------------

    def record(
        self, name: str, value: float = 1.0, n: int = 1,
        now: float | None = None,
    ) -> None:
        self.series(name).record(value, n=n, now=now)

    def observe(
        self, name: str, value: float, now: float | None = None
    ) -> None:
        self.series(name).record(value, now=now)
        self.sketch(name).observe(value)

    # -- reading --------------------------------------------------------------

    def window(
        self, name: str, seconds: float, now: float | None = None
    ) -> WindowAggregate:
        """Windowed aggregate; empty when the series never recorded."""
        series = self._series.get(name)
        if series is None:
            return WindowAggregate(seconds=seconds)
        return series.window(seconds, now=now)

    def rate(
        self, name: str, seconds: float, now: float | None = None
    ) -> float:
        return self.window(name, seconds, now=now).rate

    def quantile(self, name: str, q: float) -> float:
        sketch = self._sketches.get(name)
        if sketch is None:
            return 0.0
        return sketch.quantile(q)

    def snapshot(
        self, windows: tuple[float, ...] = (60.0, 300.0)
    ) -> dict:
        """JSON-ready view: windowed rates plus sketch summaries."""
        now = self.clock.now()
        return {
            "series": {
                name: {
                    f"{int(seconds)}s": series.window(
                        seconds, now=now
                    ).to_dict()
                    for seconds in windows
                }
                for name, series in sorted(self._series.items())
            },
            "sketches": {
                name: sketch.summary()
                for name, sketch in sorted(self._sketches.items())
            },
        }
