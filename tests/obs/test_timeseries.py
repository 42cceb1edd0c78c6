"""Windowed telemetry: ring-buffer windows and P² quantile sketches.

The sketch suite checks the bounded estimator against an exact
nearest-rank reference on adversarial value distributions (sorted
ramps, constants, two-point clusters, heavy tails); the ring-buffer
suite replays arbitrary (advance, record) schedules on a FakeClock
against a brute-force reference model of timestamped events.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.clock import FakeClock
from repro.obs.timeseries import (
    P2Quantile,
    QuantileSketch,
    Telemetry,
    TimeSeries,
    exact_quantile,
)
from repro.obs.tracer import Tracer

QS = (0.5, 0.9, 0.95, 0.99)


def rank_error(ordered: list[float], estimate: float, q: float) -> float:
    """Distance from ``q`` to the rank band ``estimate`` occupies.

    Zero when some data rank maps the estimate back to ``q``; the
    natural error measure for rank-based sketches (value error is
    meaningless on adversarial scales).
    """
    n = len(ordered)
    below = sum(1 for v in ordered if v < estimate) / n
    at_or_below = sum(1 for v in ordered if v <= estimate) / n
    if below <= q <= at_or_below:
        return 0.0
    return min(abs(q - below), abs(q - at_or_below))


# -- exact reference ----------------------------------------------------------


class TestExactQuantile:
    def test_empty_is_zero(self):
        assert exact_quantile([], 0.5) == 0.0

    def test_nearest_rank(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(data, 0.5) == 2.0
        assert exact_quantile(data, 0.75) == 3.0
        assert exact_quantile(data, 0.76) == 4.0

    def test_extremes_clamp(self):
        data = [5.0, 7.0]
        assert exact_quantile(data, 0.001) == 5.0
        assert exact_quantile(data, 0.999) == 7.0


# -- P² single-quantile estimator ---------------------------------------------


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_exact_below_five_observations(self):
        p2 = P2Quantile(0.5)
        for value in (9.0, 1.0, 5.0):
            p2.observe(value)
        assert p2.value() == exact_quantile([1.0, 5.0, 9.0], 0.5)

    def test_uniform_ramp_is_close(self):
        p2 = P2Quantile(0.9)
        for i in range(1000):
            p2.observe(float(i % 100))
        assert 85.0 <= p2.value() <= 93.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=5, max_size=300,
        ),
        st.sampled_from(QS),
    )
    def test_estimate_stays_within_data_range(self, values, q):
        p2 = P2Quantile(q)
        for value in values:
            p2.observe(value)
        assert min(values) <= p2.value() <= max(values)


# -- bounded multi-quantile sketch --------------------------------------------

ADVERSARIAL = {
    "ascending-ramp": [float(i) for i in range(1000)],
    "descending-ramp": [float(1000 - i) for i in range(1000)],
    "constant": [42.0] * 1000,
    "two-clusters": [0.0] * 500 + [1000.0] * 500,
    "heavy-tail": [1.0] * 950 + [10.0**k for k in range(2, 7)] * 10,
    "sawtooth": [float(i % 13) for i in range(1000)],
}


class TestQuantileSketch:
    def test_validates_construction(self):
        with pytest.raises(ValueError):
            QuantileSketch(quantiles=())
        with pytest.raises(ValueError):
            QuantileSketch(quantiles=(0.5, 1.0))
        with pytest.raises(ValueError):
            QuantileSketch(exact_threshold=-1)

    def test_empty_sketch_reads_zero(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.summary()["p99"] == 0.0

    def test_exact_until_threshold(self):
        sketch = QuantileSketch(quantiles=QS, exact_threshold=50)
        values = [float((7 * i) % 49) for i in range(49)]
        for value in values:
            sketch.observe(value)
        assert sketch.exact
        ordered = sorted(values)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert sketch.quantile(q) == exact_quantile(ordered, q)

    def test_scalars_exact_after_spill(self):
        sketch = QuantileSketch(exact_threshold=10)
        values = [float(i) for i in range(500)]
        for value in values:
            sketch.observe(value)
        assert not sketch.exact
        assert sketch.count == 500
        assert sketch.total == sum(values)
        assert sketch.minimum == 0.0
        assert sketch.maximum == 499.0
        assert sketch.mean == pytest.approx(sum(values) / 500)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("q", QS)
    def test_rank_error_bound_on_adversarial_data(self, name, q):
        """Estimates stay close to exact on hostile distributions.

        Arrival order is a seeded shuffle — P², like any one-pass
        marker sketch, assumes roughly exchangeable arrival (fully
        sorted point-mass streams are covered by the ramp test below).
        An estimate passes when its rank band is within 0.12 of ``q``
        *or* its value is within 1% of the exact quantile: point-mass
        distributions make rank bands discontinuous, so a value
        epsilon above a mass holding the exact answer would otherwise
        read as a huge rank error.
        """
        import random
        import zlib

        values = list(ADVERSARIAL[name])
        random.Random(zlib.crc32(name.encode())).shuffle(values)
        sketch = QuantileSketch(quantiles=QS, exact_threshold=32)
        for value in values:
            sketch.observe(value)
        assert not sketch.exact
        ordered = sorted(values)
        estimate = sketch.quantile(q)
        exact = exact_quantile(ordered, q)
        error = rank_error(ordered, estimate, q)
        scale = max(abs(exact), 1e-12)
        value_error = abs(estimate - exact) / scale
        assert error <= 0.12 or value_error <= 0.01, (
            f"{name} p{q * 100:g}: rank error {error:.3f}, value "
            f"error {value_error:.3f} (estimate {estimate}, "
            f"exact {exact})"
        )

    @pytest.mark.parametrize("q", QS)
    def test_sorted_arrival_ramps_stay_tight(self, q):
        """Fully sorted arrival (both directions) barely moves P²."""
        for values in (
            ADVERSARIAL["ascending-ramp"],
            ADVERSARIAL["descending-ramp"],
        ):
            sketch = QuantileSketch(quantiles=QS, exact_threshold=32)
            for value in values:
                sketch.observe(value)
            error = rank_error(sorted(values), sketch.quantile(q), q)
            assert error <= 0.02

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e9, max_value=1e9,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=400,
        )
    )
    def test_envelope_is_bounded_and_monotone(self, values):
        sketch = QuantileSketch(quantiles=QS, exact_threshold=32)
        for value in values:
            sketch.observe(value)
        probes = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99]
        estimates = [sketch.quantile(q) for q in probes]
        for estimate in estimates:
            assert min(values) <= estimate <= max(values)
        for lo, hi in zip(estimates, estimates[1:]):
            assert lo <= hi + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=31,
        )
    )
    def test_small_streams_match_exact_reference(self, values):
        sketch = QuantileSketch(quantiles=QS, exact_threshold=32)
        for value in values:
            sketch.observe(value)
        ordered = sorted(values)
        for q in (0.1, 0.5, 0.9):
            assert sketch.quantile(q) == exact_quantile(ordered, q)


# -- ring-buffer time series --------------------------------------------------


class TestTimeSeries:
    def test_validates_construction(self):
        with pytest.raises(ValueError):
            TimeSeries(interval=0.0)
        with pytest.raises(ValueError):
            TimeSeries(n_buckets=0)
        with pytest.raises(ValueError):
            TimeSeries().window(0.0)

    def test_counts_and_values_in_current_window(self):
        clock = FakeClock()
        series = TimeSeries(interval=1.0, n_buckets=60, clock=clock)
        series.record(0.2)
        series.record(0.6)
        window = series.window(10.0)
        assert window.count == 2
        assert window.total == pytest.approx(0.8)
        assert window.minimum == 0.2
        assert window.maximum == 0.6
        assert window.mean == pytest.approx(0.4)

    def test_rate_is_count_over_covered_span(self):
        clock = FakeClock()
        series = TimeSeries(interval=1.0, n_buckets=60, clock=clock)
        for _ in range(30):
            series.record()
            clock.advance(1.0)
        # Recording advanced the clock after each event, so the
        # 10-bucket window ending at t=30 holds events from t=21..29
        # (the current bucket, t=30, is still empty).
        assert series.rate(10.0) == pytest.approx(9 / 10.0)
        assert series.window(60.0).count == 30

    def test_old_buckets_expire_after_clock_jump(self):
        clock = FakeClock()
        series = TimeSeries(interval=1.0, n_buckets=10, clock=clock)
        for _ in range(5):
            series.record()
        clock.advance(3600.0)  # jump far past the ring's capacity
        assert series.window(10.0).count == 0
        assert series.rate(5.0) == 0.0
        series.record()
        assert series.window(10.0).count == 1

    def test_ring_wrap_overwrites_oldest(self):
        clock = FakeClock()
        series = TimeSeries(interval=1.0, n_buckets=5, clock=clock)
        for _ in range(8):  # 8 intervals through a 5-bucket ring
            series.record()
            clock.advance(1.0)
        # Window clamps to the ring's 5 buckets: t=4..8, of which the
        # current bucket (t=8) is empty — the t=0..3 events are gone.
        assert series.window(100.0).count == 4

    def test_batched_record_weights_count_and_total(self):
        series = TimeSeries(interval=1.0, n_buckets=4, clock=FakeClock())
        series.record(2.0, n=10)
        window = series.window(1.0)
        assert window.count == 10
        assert window.total == pytest.approx(20.0)
        assert window.maximum == 2.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0),  # advance
                st.integers(min_value=0, max_value=5),     # events
            ),
            min_size=1, max_size=40,
        ),
        st.floats(min_value=1.0, max_value=30.0),  # window seconds
    )
    def test_window_matches_timestamped_reference(self, schedule, seconds):
        """Brute-force model: keep every (timestamp, n) and re-count.

        The ring counts whole buckets, so the reference keeps events
        whose *bucket index* falls in the last ``ceil(seconds)``
        indices — the documented window semantics.
        """
        clock = FakeClock()
        series = TimeSeries(interval=1.0, n_buckets=64, clock=clock)
        events: list[tuple[int, int]] = []  # (bucket index, n)
        for advance, n_events in schedule:
            clock.advance(advance)
            if n_events:
                series.record(n=n_events)
                events.append((int(clock.now() // 1.0), n_events))
        span = min(64, max(1, math.ceil(seconds)))
        current = int(clock.now() // 1.0)
        expected = sum(
            n for index, n in events
            if current - span + 1 <= index <= current
        )
        window = series.window(seconds)
        assert window.count == expected
        assert window.rate == pytest.approx(expected / (span * 1.0))


# -- telemetry hub ------------------------------------------------------------


class TestTelemetry:
    def test_record_and_observe_create_on_use(self):
        telemetry = Tracer(
            clock=FakeClock(), windows=Telemetry(interval=1.0)
        ).windows
        telemetry.record("fetch.outcomes")
        telemetry.observe("serve.latency", 0.05)
        assert telemetry.series_names == [
            "fetch.outcomes", "serve.latency",
        ]
        assert telemetry.sketch_names == ["serve.latency"]
        assert telemetry.rate("fetch.outcomes", 10.0) > 0
        assert telemetry.quantile("serve.latency", 0.5) == 0.05

    def test_unknown_names_read_empty(self):
        telemetry = Tracer(clock=FakeClock(), windows=Telemetry()).windows
        assert telemetry.window("nope", 10.0).count == 0
        assert telemetry.rate("nope", 10.0) == 0.0
        assert telemetry.quantile("nope", 0.5) == 0.0

    def test_snapshot_shape(self):
        telemetry = Tracer(
            clock=FakeClock(), windows=Telemetry(interval=1.0)
        ).windows
        telemetry.observe("serve.latency", 0.2)
        snap = telemetry.snapshot(windows=(60.0,))
        assert snap["series"]["serve.latency"]["60s"]["count"] == 1
        assert snap["sketches"]["serve.latency"]["count"] == 1

    def test_tracer_shares_one_clock_with_its_windows(self):
        from repro.obs.clock import MonotonicClock
        from repro.obs.events import EventLog
        from repro.obs.tracer import NULL_TRACER

        assert NULL_TRACER.windows is None
        assert isinstance(NULL_TRACER.clock, MonotonicClock)
        assert Tracer().windows is None
        clock = FakeClock()
        telemetry = Telemetry()
        tracer = Tracer(clock=clock, recorder=EventLog(), windows=telemetry)
        assert tracer.clock is clock
        assert telemetry.clock is clock
        assert tracer.recorder.clock is clock
        # Without a clock the tracer picks a monotonic one and its
        # parts adopt it; they never lend the tracer theirs.
        tracer = Tracer(windows=Telemetry())
        assert isinstance(tracer.clock, MonotonicClock)
        assert tracer.windows.clock is tracer.clock
