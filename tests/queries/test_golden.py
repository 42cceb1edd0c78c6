"""Golden regression: per-driver planner output is pinned to a file.

Runs the fixed-seed scenario in ``tests/golden/regen_queries.py`` —
gather the extended five-driver web, generate + evaluate candidates,
plan a portfolio per driver — and compares against the committed
snapshot.  Any drift in candidate generation order, search ranking,
ground-truth labeling, or greedy tie-breaking shows up here as a diff.

If the change is intentional, regenerate and commit the snapshot:

    PYTHONPATH=src python tests/golden/regen_queries.py
"""

from __future__ import annotations

import json

from tests.golden.regen_queries import GOLDEN_PATH, snapshot


def test_planner_output_matches_golden_snapshot():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    current = snapshot()
    assert current["params"] == golden["params"], (
        "scenario parameters changed — regenerate the golden file: "
        "PYTHONPATH=src python tests/golden/regen_queries.py"
    )
    assert set(current["drivers"]) == set(golden["drivers"])
    for driver_id, plan in golden["drivers"].items():
        assert current["drivers"][driver_id] == plan, (
            f"planner output drifted for {driver_id!r} — if "
            f"intentional, regenerate: "
            f"PYTHONPATH=src python tests/golden/regen_queries.py"
        )


def test_golden_covers_both_new_drivers():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for driver_id in ("funding_rounds", "layoffs"):
        plan = golden["drivers"][driver_id]
        assert plan["planned"]["queries"], (
            f"{driver_id} portfolio is empty in the golden snapshot"
        )
        assert (
            plan["planned"]["precision_at_budget"]
            > plan["baseline"]["precision_at_budget"]
        ), f"planner does not beat seeds for {driver_id}"
