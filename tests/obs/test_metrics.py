"""Counter / histogram / registry aggregation tests — all exact."""

from __future__ import annotations

import pytest

from repro.obs import Counter, Histogram, Registry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("n").value == 0

    def test_add_accumulates(self):
        counter = Counter("n")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").add(-1)


class TestHistogram:
    def test_empty_summary_is_all_zero(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.minimum == 0.0
        assert histogram.maximum == 0.0
        assert histogram.percentile(50) == 0.0

    def test_aggregates_exactly(self):
        histogram = Histogram("h")
        for value in (4.0, 1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.mean == 2.5
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0

    def test_percentiles_nearest_rank(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(0) == 1.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_summary_keys(self):
        histogram = Histogram("h")
        histogram.observe(2.0)
        summary = histogram.summary()
        assert summary == {
            "count": 1,
            "total": 2.0,
            "mean": 2.0,
            "min": 2.0,
            "max": 2.0,
            "p50": 2.0,
            "p95": 2.0,
        }


class TestHistogramBoundedMemory:
    """The unbounded ``values`` list now spills to a bounded sketch."""

    def test_small_histograms_stay_exact(self):
        histogram = Histogram("h", exact_threshold=100)
        values = [float((31 * i) % 97) for i in range(99)]
        for value in values:
            histogram.observe(value)
        assert histogram.exact
        assert histogram.values == values  # raw list survives small-n
        ordered = sorted(values)
        for p in (10, 50, 90, 95, 99):
            rank = max(int(-(-p * len(ordered) // 100)) - 1, 0)
            assert histogram.percentile(p) == ordered[rank]

    def test_spill_empties_the_raw_list(self):
        histogram = Histogram("h", exact_threshold=50)
        for value in range(200):
            histogram.observe(float(value))
        assert not histogram.exact
        assert histogram.values == []  # memory released at spill
        assert histogram.count == 200
        assert histogram.total == sum(range(200))
        assert histogram.minimum == 0.0
        assert histogram.maximum == 199.0

    def test_memory_is_bounded_past_the_threshold(self):
        histogram = Histogram("h", exact_threshold=64)
        for value in range(10_000):
            histogram.observe(float(value % 500))
        assert histogram.values == []
        assert not histogram.exact

    def test_post_spill_percentiles_stay_close(self):
        """Sketch percentiles track exact nearest-rank within ~2 ranks.

        A shuffled 0..999 ramp keeps the reference unambiguous: rank
        error directly maps to value error.
        """
        import random

        values = [float(i) for i in range(1000)]
        random.Random(7).shuffle(values)
        histogram = Histogram("h", exact_threshold=128)
        for value in values:
            histogram.observe(value)
        assert not histogram.exact
        for p in (50, 90, 95, 99):
            exact = float(10 * p - 1)  # nearest-rank on 0..999
            assert histogram.percentile(p) == pytest.approx(
                exact, abs=20.0
            )
        assert histogram.percentile(0) == 0.0
        assert histogram.percentile(100) == 999.0

    def test_summary_keys_survive_spill(self):
        histogram = Histogram("h", exact_threshold=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert set(summary) == {
            "count", "total", "mean", "min", "max", "p50", "p95",
        }
        assert summary["count"] == 5
        assert summary["total"] == 15.0


class TestRegistry:
    def test_counters_created_on_first_use(self):
        registry = Registry()
        registry.count("a")
        registry.count("a", 2)
        registry.count("b", 7)
        assert registry.counters == {"a": 3, "b": 7}

    def test_same_name_same_instance(self):
        registry = Registry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")

    def test_snapshot_is_json_ready(self):
        import json

        registry = Registry()
        registry.count("docs", 12)
        registry.observe("seconds", 0.5)
        registry.observe("seconds", 1.5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"] == {"docs": 12}
        assert snapshot["histograms"]["seconds"]["count"] == 2
        assert snapshot["histograms"]["seconds"]["mean"] == 1.0

    def test_names_sorted_in_views(self):
        registry = Registry()
        registry.count("zeta")
        registry.count("alpha")
        assert list(registry.counters) == ["alpha", "zeta"]
