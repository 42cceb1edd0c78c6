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

from repro.cli import main
from repro.obs.events import read_events

DOCS = ["--docs", "200", "--seed", "7"]
LOAD = ["--queries", "30", "--clients", "2"]


class TestHealthUnderFaults:
    def test_fault_free_run_is_ok(self, capsys):
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

    def test_json_rollup_shape(self, capsys):
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
