"""SLO engine: spec validation, burn-rate math, config, breach events.

The burn-rate suite checks the engine against an independent reference
model (plain ratio arithmetic over the same counts) under hypothesis;
the config suite pins ``configs/slos.yaml`` to :func:`default_slos` so
the committed file and the in-code defaults cannot drift apart.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.clock import FakeClock
from repro.obs.events import EventLog
from repro.obs.slo import (
    CONFIG_VERSION,
    DEFAULT_FAST_BURN,
    DEFAULT_SLOW_BURN,
    SloEngine,
    SloSpec,
    default_slos,
    load_slo_config,
    parse_slo_config,
)
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import Tracer

REPO_ROOT = Path(__file__).resolve().parents[2]
SLOS_YAML = REPO_ROOT / "configs" / "slos.yaml"


def availability_spec(**overrides) -> SloSpec:
    kwargs = dict(
        name="avail",
        objective="availability",
        target=0.9,
        component="fetch",
        good_series="ok",
        total_series="total",
    )
    kwargs.update(overrides)
    return SloSpec(**kwargs)


def fresh_engine(specs, recorder=None):
    clock = FakeClock(start=10_000.0)
    telemetry = Telemetry(interval=1.0, n_buckets=7200)
    return clock, telemetry, SloEngine(
        specs, Tracer(clock=clock, recorder=recorder, windows=telemetry)
    )


# -- spec validation ----------------------------------------------------------


class TestSloSpec:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            SloSpec(name="x", objective="karma", target=0.5)

    def test_ratio_targets_must_be_fractions(self):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            availability_spec(target=1.0)

    def test_ratio_series_are_required(self):
        with pytest.raises(ValueError, match="total_series"):
            availability_spec(total_series="")
        with pytest.raises(ValueError, match="good_series"):
            availability_spec(good_series="")
        with pytest.raises(ValueError, match="bad_series"):
            SloSpec(
                name="dl", objective="dead_letter_rate", target=0.05,
                total_series="total",
            )

    def test_threshold_objectives_need_their_source(self):
        with pytest.raises(ValueError, match="sketch"):
            SloSpec(name="lat", objective="latency", target=0.25)
        with pytest.raises(ValueError, match="series"):
            SloSpec(name="fresh", objective="freshness", target=3.0)
        with pytest.raises(ValueError, match="positive"):
            SloSpec(
                name="lat", objective="latency", target=0.0,
                sketch="serve.latency",
            )

    def test_windows_and_burns_must_be_positive(self):
        with pytest.raises(ValueError, match="windows"):
            availability_spec(fast_window=0.0)
        with pytest.raises(ValueError, match="burn"):
            availability_spec(slow_burn=0.0)

    def test_budget_per_objective(self):
        assert availability_spec(target=0.97).budget == pytest.approx(
            0.03
        )
        dl = SloSpec(
            name="dl", objective="dead_letter_rate", target=0.05,
            bad_series="bad", total_series="total",
        )
        assert dl.budget == 0.05

    def test_engine_rejects_duplicate_names(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError, match="duplicate"):
            SloEngine(
                [availability_spec(), availability_spec()],
                Tracer(clock=FakeClock(), windows=telemetry),
            )


# -- burn-rate evaluation ------------------------------------------------------


class TestBurnRates:
    def test_no_traffic_is_ok(self):
        _, _, engine = fresh_engine([availability_spec()])
        (status,) = engine.evaluate()
        assert status.severity == "ok"
        assert status.burn_fast == 0.0
        assert status.budget_remaining == 1.0
        assert status.n_samples == 0

    def test_sustained_errors_page(self):
        clock, telemetry, engine = fresh_engine([availability_spec()])
        for _ in range(100):
            telemetry.record("total")
        for _ in range(50):
            telemetry.record("ok")
        (status,) = engine.evaluate()
        # Error ratio 0.5 against a 0.1 budget: burn 5.0 in both
        # windows — fast (>= 2.0) and slow (>= 1.0) both breach.
        assert status.burn_fast == pytest.approx(5.0)
        assert status.burn_slow == pytest.approx(5.0)
        assert status.breaching
        assert status.severity == "page"
        assert status.budget_remaining == 0.0

    def test_fast_spike_alone_only_warns(self):
        spec = availability_spec(fast_window=10.0, slow_window=3600.0)
        clock, telemetry, engine = fresh_engine([spec])
        # An hour of clean traffic, then a 100%-error spike in the
        # last 10 seconds: fast window burns, slow window stays below
        # its threshold -> warn, not page.
        for _ in range(3000):
            telemetry.record("total")
            telemetry.record("ok")
            clock.advance(1.0)
        for _ in range(5):
            telemetry.record("total")
            clock.advance(1.0)
        (status,) = engine.evaluate()
        assert status.breaching_fast
        assert not status.breaching_slow
        assert status.severity == "warn"
        assert not status.breaching

    def test_latency_objective_reads_sketch_quantile(self):
        spec = SloSpec(
            name="p99", objective="latency", target=0.1,
            sketch="serve.latency", quantile=0.99,
        )
        _, telemetry, engine = fresh_engine([spec])
        for _ in range(98):
            telemetry.observe("serve.latency", 0.01)
        for _ in range(2):  # nearest-rank p99 of 100 lands on these
            telemetry.observe("serve.latency", 0.4)
        (status,) = engine.evaluate()
        assert status.value_fast == pytest.approx(0.4)
        assert status.burn_fast == pytest.approx(4.0)
        assert status.breaching

    def test_freshness_objective_reads_windowed_max(self):
        spec = SloSpec(
            name="fresh", objective="freshness", target=2.0,
            series="stream.freshness_days",
        )
        _, telemetry, engine = fresh_engine([spec])
        telemetry.record("stream.freshness_days", value=0.0)
        (status,) = engine.evaluate()
        assert status.severity == "ok"
        telemetry.observe("stream.freshness_days", 5.0)
        (status,) = engine.evaluate()
        assert status.burn_fast == pytest.approx(2.5)
        assert status.breaching

    def test_budgets_do_not_emit_breaches(self):
        log = EventLog()
        clock, telemetry, engine = fresh_engine(
            [availability_spec()], recorder=log
        )
        for _ in range(10):
            telemetry.record("total")
        budgets = engine.budgets()
        assert budgets == {"avail": 0.0}  # 100% errors: budget gone
        assert log.events("slo_breach") == []

    @settings(max_examples=80, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=500),
        good=st.integers(min_value=0, max_value=500),
        target=st.floats(min_value=0.5, max_value=0.99),
    )
    def test_ratio_burn_matches_reference_model(
        self, total, good, target
    ):
        """Engine burn == plain arithmetic on the same counts."""
        good = min(good, total)
        spec = availability_spec(target=target)
        _, telemetry, engine = fresh_engine([spec])
        if total:
            telemetry.record("total", n=total)
        if good:
            telemetry.record("ok", n=good)
        (status,) = engine.evaluate()
        budget = 1.0 - target
        error_ratio = (total - good) / total if total else 0.0
        expected_burn = error_ratio / budget
        assert status.burn_fast == pytest.approx(expected_burn)
        assert status.burn_slow == pytest.approx(expected_burn)
        assert status.breaching == (
            expected_burn >= DEFAULT_FAST_BURN
            and expected_burn >= DEFAULT_SLOW_BURN
        )
        assert status.budget_remaining == pytest.approx(
            min(1.0, max(0.0, 1.0 - expected_burn))
        )
        assert status.n_samples == total

    @settings(max_examples=60, deadline=None)
    @given(
        bad=st.integers(min_value=0, max_value=200),
        extra=st.integers(min_value=0, max_value=500),
        target=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_dead_letter_burn_matches_reference_model(
        self, bad, extra, target
    ):
        total = bad + extra
        spec = SloSpec(
            name="dl", objective="dead_letter_rate", target=target,
            bad_series="bad", total_series="total",
        )
        _, telemetry, engine = fresh_engine([spec])
        if total:
            telemetry.record("total", n=total)
        if bad:
            telemetry.record("bad", n=bad)
        (status,) = engine.evaluate()
        expected_burn = (bad / total) / target if total else 0.0
        assert status.burn_fast == pytest.approx(expected_burn)


# -- breach events -------------------------------------------------------------


class TestBreachEvents:
    def test_breach_is_edge_triggered_and_rearms(self):
        log = EventLog()
        spec = availability_spec(
            fast_window=10.0, slow_window=10.0
        )
        clock, telemetry, engine = fresh_engine([spec], recorder=log)
        telemetry.record("total", n=10)  # 100% errors
        engine.evaluate()
        engine.evaluate()
        engine.evaluate()
        assert len(log.events("slo_breach")) == 1  # one per excursion

        clock.advance(3600.0)  # windows drain -> recovery
        (status,) = engine.evaluate()
        assert not status.breaching
        assert len(log.events("slo_breach")) == 1

        telemetry.record("total", n=10)  # second excursion
        engine.evaluate()
        assert len(log.events("slo_breach")) == 2

    def test_breach_payload_schema(self):
        log = EventLog()
        _, telemetry, engine = fresh_engine(
            [availability_spec()], recorder=log
        )
        telemetry.record("total", n=20)
        engine.evaluate()
        (event,) = log.events("slo_breach")
        payload = event.payload
        assert payload["slo"] == "avail"
        assert payload["objective"] == "availability"
        assert payload["component"] == "fetch"
        assert payload["window"] == "fast+slow"
        assert payload["burn_rate"] == pytest.approx(10.0)
        assert payload["budget_remaining"] == 0.0
        assert payload["target"] == 0.9


# -- config loading ------------------------------------------------------------


class TestConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="mapping"):
            parse_slo_config([])
        with pytest.raises(ValueError, match="version"):
            parse_slo_config({"version": 99, "slos": []})
        with pytest.raises(ValueError, match="non-empty"):
            parse_slo_config({"version": CONFIG_VERSION, "slos": []})
        with pytest.raises(ValueError, match="unknown SLO config keys"):
            parse_slo_config(
                {
                    "version": CONFIG_VERSION,
                    "slos": [
                        {
                            "name": "x", "objective": "latency",
                            "target": 1.0, "sketch": "s",
                            "threshold": 3,  # not a key
                        }
                    ],
                }
            )

    def test_windows_and_burn_subdicts(self):
        specs = parse_slo_config(
            {
                "version": CONFIG_VERSION,
                "slos": [
                    {
                        "name": "x",
                        "objective": "availability",
                        "target": 0.9,
                        "good_series": "ok",
                        "total_series": "total",
                        "windows": {"fast": 60, "slow": 600},
                        "burn": {"fast": 14.4, "slow": 6.0},
                    }
                ],
            }
        )
        (spec,) = specs
        assert spec.fast_window == 60.0
        assert spec.slow_window == 600.0
        assert spec.fast_burn == 14.4
        assert spec.slow_burn == 6.0

    def test_json_config_loads(self, tmp_path):
        import json

        path = tmp_path / "slos.json"
        path.write_text(
            json.dumps(
                {
                    "version": CONFIG_VERSION,
                    "slos": [
                        {
                            "name": "lat", "objective": "latency",
                            "target": 0.5, "sketch": "serve.latency",
                        }
                    ],
                }
            )
        )
        (spec,) = load_slo_config(path)
        assert spec.name == "lat"
        assert spec.quantile == 0.99

    def test_committed_yaml_matches_default_slos(self):
        """configs/slos.yaml and default_slos() must not drift."""
        assert SLOS_YAML.exists(), "configs/slos.yaml is committed"
        from_yaml = load_slo_config(SLOS_YAML)
        assert from_yaml == default_slos()

    def test_default_slos_cover_the_pipeline(self):
        components = {spec.component for spec in default_slos()}
        assert components == {"fetch", "serve", "stream"}
        objectives = {spec.objective for spec in default_slos()}
        assert objectives == {
            "availability", "dead_letter_rate", "latency", "freshness",
        }
