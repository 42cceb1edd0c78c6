"""The serve SLOs hold under replica churn only because of hedging.

A ``ChaosMonkey`` kills and restores one replica of every group while
zipf load runs; ``configs/slos.yaml``'s serve specs give the verdict.
Latencies are simulated ticks on a ``FakeClock``.  The unhedged control
must breach, or the hedged pass would prove nothing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.drivers import builtin_drivers
from repro.core.etap import Etap, EtapConfig
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs import FakeClock
from repro.obs.slo import SloEngine, load_slo_config
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import Tracer
from repro.robustness.faults import get_profile
from repro.serve import AdmissionController, AlertPortal, LoadGenerator
from tests.serve.chaos import ChaosMonkey, tick_before_each_route

SLO_CONFIG = Path(__file__).resolve().parents[2] / "configs" / "slos.yaml"
N_QUERIES = 1200
BASE_QUERIES = [q for d in builtin_drivers() for q in d.smart_queries] + [
    "acquisition", "revenue growth", "new ceo appointment",
    "quarterly earnings", "merger agreement",
]
#: Suffixed so most requests miss the cache and reach a replica.
CHAOS_QUERIES = [f"{q} v{v}" for v in range(60) for q in BASE_QUERIES]


def run_leg(etap, hedging: bool) -> dict:
    tracer = Tracer(clock=FakeClock(), windows=Telemetry())
    with AlertPortal.from_etap(
        etap,
        n_shards=2,
        admission=AdmissionController(
            rate=1e9, burst=float(N_QUERIES), max_pending=64,
            tracer=tracer,
        ),
        tracer=tracer,
        n_replicas=4,
        hedge_after=0.05,
        fail_after=0.8,
        hedging=hedging,
        replica_fault_profile=get_profile("lossy"),
        fault_seed=7,
        # Lossy dead draws must not cascade breakers open.
        replica_failure_threshold=5,
        replica_cool_off=2.0,
    ) as portal:
        monkey = ChaosMonkey(portal.replicas, period=1.0, down_for=0.9)
        tick_before_each_route(monkey, portal.router)
        report = LoadGenerator(
            portal,
            CHAOS_QUERIES,
            n_clients=6,
            n_queries=N_QUERIES,
            seed=7,
        ).run()
        monkey.finish()
        specs = [
            spec for spec in load_slo_config(SLO_CONFIG)
            if spec.component == "serve"
        ]
        return {
            "statuses": report.statuses,
            "kills": monkey.kills,
            "restores": monkey.restores,
            "groups": portal.replicas.stats()["groups"],
            "slos": SloEngine(specs, tracer).evaluate(),
        }


@pytest.fixture(scope="module")
def legs():
    web = build_web(200, CorpusConfig(seed=7))
    etap = Etap.from_web(web, config=EtapConfig())
    etap.gather()
    return {
        "hedged": run_leg(etap, hedging=True),
        "unhedged": run_leg(etap, hedging=False),
    }


@pytest.mark.parametrize("name", ["hedged", "unhedged"])
def test_chaos_kills_and_restores_every_group(legs, name):
    leg = legs[name]
    assert sum(leg["statuses"].values()) == N_QUERIES
    assert leg["kills"] >= 1 and leg["restores"] >= 1
    assert leg["kills"] == leg["restores"]
    for group in leg["groups"]:
        assert group["up"] == group["n_replicas"], group


def test_hedged_leg_holds_every_serve_slo(legs):
    hedged = legs["hedged"]
    assert hedged["statuses"] == {"ok": N_QUERIES}
    for status in hedged["slos"]:
        assert not status.breaching, status.name
        assert status.burn_fast < 1.0, status.name
        assert status.burn_slow < 1.0, status.name


def test_unhedged_leg_breaches_the_latency_slo(legs):
    breaching = {s.name for s in legs["unhedged"]["slos"] if s.breaching}
    assert "serve-latency-p99" in breaching
