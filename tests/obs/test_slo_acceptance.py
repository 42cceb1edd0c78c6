"""Chaos acceptance: faults page SLOs and turn health critical.

The PR's headline guarantee, pinned end-to-end through the real CLI:
``repro health`` under the deterministic ``lossy`` fault profile must
emit ``slo_breach`` flight-recorder events and exit ``critical`` (2),
while the identical fault-free run stays ``ok`` (0) with every error
budget intact.  Everything is seeded — same corpus, same fault rolls,
same load — so the verdicts are exact, not statistical.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.drivers import builtin_drivers
from repro.obs.clock import FakeClock
from repro.obs.events import read_events
from repro.obs.health import EXIT_CODES, HealthMonitor
from repro.obs.slo import SloEngine, default_slos
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import Tracer
from repro.serve import AlertPortal, LoadGenerator

from tests.serve.test_portal import advance_per_search, build_store

DOCS = ["--docs", "200", "--seed", "7"]
LOAD = ["--queries", "30", "--clients", "2"]


class TestHealthUnderFaults:
    def test_fault_free_run_is_ok(self, fake_clock_cli, capsys):
        # On a FakeClock handle no wall-clock pause can push the
        # latency p99 past its objective; TestLatencyVerdict below
        # drives that objective through the portal instead.
        code = main(["health", *DOCS, *LOAD])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: ok" in out
        assert "budget=100%" in out

    def test_lossy_run_is_critical_with_breaches(
        self, tmp_path, capsys
    ):
        events_file = tmp_path / "events.jsonl"
        code = main([
            "health", *DOCS, *LOAD,
            "--fault-profile", "lossy",
            "--record", str(events_file),
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "overall: critical" in out
        assert "page" in out

        breaches = [
            event for event in read_events(events_file)
            if event.event_type == "slo_breach"
        ]
        assert breaches, "lossy faults must page at least one SLO"
        breached = {event.payload["slo"] for event in breaches}
        # The lossy profile (15% hard-dead hosts) torches the 3%
        # fetch-availability budget; everything it pages must
        # arrive with both windows burning and the budget gone.
        assert "fetch-availability" in breached
        for event in breaches:
            assert event.payload["window"] == "fast+slow"
            assert event.payload["burn_rate"] >= 1.0
            assert event.payload["budget_remaining"] < 1.0

    def test_lossy_verdict_is_deterministic(self, capsys):
        first = main([
            "health", *DOCS, *LOAD, "--fault-profile", "lossy",
            "--json",
        ])
        out_first = capsys.readouterr().out
        second = main([
            "health", *DOCS, *LOAD, "--fault-profile", "lossy",
            "--json",
        ])
        out_second = capsys.readouterr().out
        assert first == second == 2
        slos_first = {
            s["name"]: (s["severity"], s["breaching"])
            for s in json.loads(out_first)["slos"]
        }
        slos_second = {
            s["name"]: (s["severity"], s["breaching"])
            for s in json.loads(out_second)["slos"]
        }
        assert slos_first == slos_second
        assert slos_first["fetch-availability"] == ("page", True)

    def test_json_rollup_shape(self, fake_clock_cli, capsys):
        code = main(["health", *DOCS, *LOAD, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        components = {
            c["component"]: c["status"] for c in payload["components"]
        }
        assert components.get("ingest") == "ok"
        assert components.get("serve") == "ok"
        slos = {s["name"]: s for s in payload["slos"]}
        assert set(slos) == {
            "fetch-availability", "fetch-dead-letters",
            "serve-availability", "serve-degraded-reads",
            "serve-latency-p99", "stream-freshness",
        }
        for status in slos.values():
            assert status["budget_remaining"] >= 0.9


class TestLatencyVerdict:
    """The latency objective, exercised through a FakeClock portal.

    Each uncached search costs a fixed time on the tracer's clock, so
    the p99 and its burn are exact.  The committed objective (p99 <=
    0.25 s) warns at burn >= 1 and pages only at the fast-window burn
    threshold of 2, i.e. at p99 >= 0.5 s.
    """

    @pytest.mark.parametrize(
        "search_seconds,status",
        [(0.3, "degraded"), (0.6, "critical")],
    )
    def test_slow_searches_burn_the_latency_budget(
        self, search_seconds, status
    ):
        tracer = Tracer(clock=FakeClock(), windows=Telemetry())
        portal = AlertPortal(build_store(), tracer=tracer)
        portal.refresh()
        advance_per_search(portal, search_seconds)
        queries = [q for d in builtin_drivers() for q in d.smart_queries]
        with portal:
            LoadGenerator(
                portal, queries, n_clients=1, n_queries=30, seed=7
            ).run()
        health = HealthMonitor(
            SloEngine(default_slos(), tracer), tracer=tracer
        ).rollup()
        latency = {s.name: s for s in health.slos}["serve-latency-p99"]
        assert latency.value_fast == pytest.approx(search_seconds)
        paged = status == "critical"
        assert latency.severity == ("page" if paged else "warn")
        assert health.status == status
        assert EXIT_CODES[health.status] == (2 if paged else 1)
