"""Regenerate the golden admission-fairness schedule.

Run from the repo root after any *intentional* change to admission
or quota semantics:

    PYTHONPATH=src python tests/golden/regen_fairness.py

then review the diff of ``tests/golden/fairness_schedule.json`` in the
PR — the diff IS the behaviour change.  ``tests/serve/test_fairness.py``
fails when the admission schedule drifts from this file.

The pinned scenario: two tenants at 10:1 offered load against a full
admission queue.  ``heavy`` fires on ten of every eleven steps,
``light`` on one; releases happen every other step (slower than
arrivals), so the queue saturates early and *stays* saturated — every
admit from then on is a fairness decision about who gets the freed
slot.  With 25% quotas reserved per tenant, every one of ``light``'s
requests lands — its reserved slots are always free again by its next
arrival.  The contrast leg without quotas drops ``light`` to coin-flip
admission: a freed slot goes to whichever tenant's step comes next, so
the minority tenant's service depends purely on arrival phase.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.serve.admission import AdmissionController

GOLDEN_PATH = Path(__file__).with_name("fairness_schedule.json")

#: Everything below is part of the schedule's identity.
N_STEPS = 220
MAX_PENDING = 8
QUOTAS = {"light": 0.25, "heavy": 0.25}  # 2 slots each, 4 shared
HEAVY_PER_LIGHT = 10  # the 10:1 offered-load ratio


def offered_client(step: int) -> str:
    return "light" if step % (HEAVY_PER_LIGHT + 1) == 0 else "heavy"


def fairness_schedule(quotas: dict | None = QUOTAS) -> dict:
    """Drive the controller through the pinned contention scenario.

    Single-threaded and on a fake clock, so the admit/reject decision
    at every step is exactly reproducible.  Returns the step-by-step
    schedule plus per-tenant offered/admitted rollups.
    """
    controller = AdmissionController(
        rate=1e9,
        burst=1e9,
        max_pending=MAX_PENDING,
        tracer=Tracer(clock=FakeClock()),
        quotas=quotas,
    )
    in_flight: deque[str] = deque()
    schedule: list[list] = []
    offered = {"light": 0, "heavy": 0}
    admitted = {"light": 0, "heavy": 0}
    for step in range(N_STEPS):
        client = offered_client(step)
        offered[client] += 1
        decision = controller.admit(client)
        if decision.admitted:
            admitted[client] += 1
            in_flight.append(client)
        schedule.append([step, client, bool(decision.admitted)])
        # Slow consumer: drain one request every other step, oldest
        # first, so arrivals outpace service and the queue stays full.
        if step % 2 == 1 and in_flight:
            controller.release(in_flight.popleft())
    return {
        "offered": offered,
        "admitted": admitted,
        "acceptance": {
            client: round(admitted[client] / offered[client], 4)
            for client in sorted(offered)
        },
        "schedule": schedule,
    }


def main() -> None:
    data = {
        "params": {
            "n_steps": N_STEPS,
            "max_pending": MAX_PENDING,
            "quotas": QUOTAS,
            "heavy_per_light": HEAVY_PER_LIGHT,
        },
        "with_quotas": fairness_schedule(QUOTAS),
        "without_quotas": fairness_schedule(None),
    }
    GOLDEN_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
    for leg in ("with_quotas", "without_quotas"):
        print(f"  {leg}: acceptance {data[leg]['acceptance']}")


if __name__ == "__main__":
    main()
