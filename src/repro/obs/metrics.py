"""Counters and histograms: the pipeline's numeric vital signs.

A :class:`Registry` owns named :class:`Counter` and :class:`Histogram`
instances.  Instrumented code increments/observes by name through the
tracer; reporting code snapshots the registry.  Everything is plain
in-process Python — this is a measurement substrate for a single
pipeline run, not a metrics *server*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.timeseries import DEFAULT_QUANTILES, QuantileSketch

#: Observations a histogram stores exactly before spilling into
#: constant-memory P² markers.  Below this, the raw ``values`` list is
#: kept and every statistic is exact; at or above it, memory stops
#: growing.
HISTOGRAM_EXACT_LIMIT = 4096


@dataclass
class Counter:
    """A monotonically increasing named count."""

    name: str
    value: int = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a histogram "
                             "for signed observations")
        self.value += n


class Histogram(QuantileSketch):
    """A named :class:`~repro.obs.timeseries.QuantileSketch`.

    Raw values are kept until ``exact_threshold`` observations, so a
    single pipeline run's statistics are exact (no bucket-boundary
    error); past it the sketch spills to P² markers and memory stays
    constant.  Count/total/min/max stay exact forever.  Adds the
    percent-scale :meth:`percentile` and the report's :meth:`summary`.
    """

    __slots__ = ("name",)

    def __init__(
        self, name: str, exact_threshold: int = HISTOGRAM_EXACT_LIMIT
    ) -> None:
        super().__init__(DEFAULT_QUANTILES, exact_threshold)
        self.name = name

    @property
    def values(self) -> list[float]:
        """Raw observations while exact; empty once spilled."""
        return self._exact if self._exact is not None else []

    def percentile(self, q: float) -> float:
        """Percentile of the observations so far (``q`` in [0, 100]).

        Exact nearest-rank below ``exact_threshold`` observations; a P²
        estimate afterwards.  ``q`` 0/100 are always the exact min/max.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if q == 0:
            return self.minimum
        if q == 100:
            return self.maximum
        return self.quantile(q / 100)

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class Registry:
    """Named counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access ---------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counter(name).add(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reporting ------------------------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))

    def snapshot(self) -> dict:
        """JSON-ready view of everything recorded so far."""
        return {
            "counters": self.counters,
            "histograms": {
                name: histogram.summary()
                for name, histogram in self.histograms.items()
            },
        }
