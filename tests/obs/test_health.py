"""Health monitor: probes, SLO mapping, transitions, probe factories."""

from __future__ import annotations

import pytest

from repro.obs.clock import FakeClock
from repro.obs.events import EventLog
from repro.obs.health import (
    EXIT_CODES,
    STATUS_CRITICAL,
    STATUS_DEGRADED,
    STATUS_OK,
    ComponentHealth,
    HealthMonitor,
    fetcher_probe,
    gather_probe,
    processor_probe,
    worst,
)
from repro.obs.slo import SloEngine, SloSpec, default_slos
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import Tracer


def ok_probe(component):
    return lambda: ComponentHealth(component, STATUS_OK)


def make_tracer(recorder=None):
    """A FakeClock tracer with 1 s windows: the run's one time axis."""
    return Tracer(
        clock=FakeClock(),
        recorder=recorder,
        windows=Telemetry(interval=1.0),
    )


def make_monitor(tracer):
    spec = SloSpec(
        name="avail",
        objective="availability",
        target=0.9,
        component="fetch",
        good_series="ok",
        total_series="total",
    )
    return HealthMonitor(SloEngine([spec], tracer), tracer=tracer)


class TestStatusAlgebra:
    def test_worst(self):
        assert worst() == STATUS_OK
        assert worst(STATUS_OK, STATUS_OK) == STATUS_OK
        assert worst(STATUS_OK, STATUS_DEGRADED) == STATUS_DEGRADED
        assert (
            worst(STATUS_DEGRADED, STATUS_CRITICAL, STATUS_OK)
            == STATUS_CRITICAL
        )

    def test_exit_codes(self):
        assert EXIT_CODES[STATUS_OK] == 0
        assert EXIT_CODES[STATUS_DEGRADED] == 1
        assert EXIT_CODES[STATUS_CRITICAL] == 2

    def test_component_health_validates_status(self):
        with pytest.raises(ValueError, match="unknown status"):
            ComponentHealth("x", "meh")


class TestRollup:
    def test_empty_monitor_is_ok(self):
        report = HealthMonitor().rollup()
        assert report.status == STATUS_OK
        assert report.components == ()
        assert report.slos == ()

    def test_overall_is_worst_component(self):
        monitor = HealthMonitor()
        monitor.register("a", ok_probe("a"))
        monitor.register(
            "b", lambda: ComponentHealth("b", STATUS_DEGRADED, "meh")
        )
        report = monitor.rollup()
        assert report.status == STATUS_DEGRADED
        assert report.reasons == ["b: meh"]

    def test_broken_probe_is_critical(self):
        monitor = HealthMonitor()
        def explode():
            raise RuntimeError("boom")
        monitor.register("a", explode)
        report = monitor.rollup()
        assert report.status == STATUS_CRITICAL
        (component,) = report.components
        assert "probe failed: boom" in component.reason

    def test_paging_slo_forces_component_critical(self):
        tracer = make_tracer()
        monitor = make_monitor(tracer)
        monitor.register("fetch", ok_probe("fetch"))
        tracer.windows.record("total", n=10)  # 100% errors -> page
        report = monitor.rollup()
        assert report.status == STATUS_CRITICAL
        (fetch,) = report.components
        assert fetch.status == STATUS_CRITICAL
        assert "slo avail page" in fetch.reason
        (slo,) = report.slos
        assert slo.breaching

    def test_slo_creates_component_without_probe(self):
        tracer = make_tracer()
        monitor = make_monitor(tracer)
        tracer.windows.record("total", n=10)
        report = monitor.rollup()
        assert [c.component for c in report.components] == ["fetch"]

    def test_slo_never_downgrades_a_probe_verdict(self):
        monitor = make_monitor(make_tracer())
        monitor.register(
            "fetch",
            lambda: ComponentHealth("fetch", STATUS_CRITICAL, "down"),
        )
        # SLO is ok (no traffic) but the probe says critical.
        report = monitor.rollup()
        assert report.status == STATUS_CRITICAL
        assert report.components[0].reason == "down"

    def test_transition_events_are_edge_triggered(self):
        log = EventLog()
        tracer = make_tracer(recorder=log)
        monitor = make_monitor(tracer)
        monitor.rollup()  # first rollup: no previous -> no event
        monitor.rollup()  # steady ok -> no event
        assert log.events("health_transition") == []

        tracer.windows.record("total", n=10)
        monitor.rollup()  # ok -> critical
        (event,) = log.events("health_transition")
        assert event.payload["status"] == STATUS_CRITICAL
        assert event.payload["previous"] == STATUS_OK
        assert event.payload["reasons"]

        tracer.clock.advance(7200.0)  # windows drain -> recovery
        monitor.rollup()
        events = log.events("health_transition")
        assert len(events) == 2
        assert events[-1].payload["status"] == STATUS_OK

    def test_rollup_reads_the_windows_on_the_tracer_clock(self):
        """Failed fetches recorded on a FakeClock tracer page the SLO
        engine, and the monitor over the same tracer must agree: it
        evaluates the windows at the tracer's time, not its own."""
        tracer = Tracer(clock=FakeClock(), windows=Telemetry())
        tracer.windows.record("fetch.outcomes", n=100)  # no fetch.ok
        engine = SloEngine(default_slos(), tracer)
        paged = {s.name for s in engine.evaluate() if s.breaching}
        assert "fetch-availability" in paged
        report = HealthMonitor(
            SloEngine(default_slos(), tracer), tracer=tracer
        ).rollup()
        assert report.status == STATUS_CRITICAL
        assert EXIT_CODES[report.status] == 2

    def test_render_and_to_dict(self):
        monitor = HealthMonitor()
        monitor.register("a", ok_probe("a"))
        report = monitor.rollup()
        text = report.render()
        assert text.startswith("overall: ok")
        assert "a" in text
        payload = report.to_dict()
        assert payload["status"] == STATUS_OK
        assert payload["components"][0]["component"] == "a"
        assert payload["slos"] == []


class TestProbeFactories:
    def test_fetcher_probe(self):
        class FakeFetcher:
            dead_letters = ["u1", "u2"]
            def breaker_states(self):
                return {"a.com": "open", "b.com": "closed"}

        health = fetcher_probe(FakeFetcher())()
        assert health.status == STATUS_DEGRADED
        assert "a.com" in health.reason
        assert health.details["dead_letters"] == 2

        class QuietFetcher:
            dead_letters = []
            def breaker_states(self):
                return {"a.com": "closed"}

        assert fetcher_probe(QuietFetcher())().status == STATUS_OK

    def test_processor_probe(self):
        class FakeProcessor:
            late_arrivals = ["d1"]
            cycle = 3

        health = processor_probe(FakeProcessor())()
        assert health.status == STATUS_DEGRADED
        assert health.details["late_arrivals"] == 1

    def test_gather_probe(self):
        class EmptyReport:
            documents_stored = 0
            pages_failed = 0
            dead_letters = 0

        assert gather_probe(EmptyReport())().status == STATUS_CRITICAL

        class LossyReport:
            documents_stored = 100
            pages_failed = 5
            dead_letters = 5

        health = gather_probe(LossyReport())()
        assert health.status == STATUS_DEGRADED
        assert "5 failed page(s)" in health.reason
