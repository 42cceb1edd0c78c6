"""Chaos acceptance bench: SLOs under replica kill/restore churn.

Stands up the replicated :class:`~repro.serve.portal.AlertPortal`
(N replicas per shard, hedged router, lossy
:class:`~repro.robustness.faults.FaultProfile` on every replica
request), lets a :class:`~repro.serve.replication.ChaosMonkey` kill and
restore one replica of every group on a fixed tick schedule, and
drives the zipf :class:`~repro.serve.loadgen.LoadGenerator` through
the whole storm.  The oracle is the committed SLO config: the
:class:`~repro.obs.slo.SloEngine` evaluates the ``serve`` specs from
``configs/slos.yaml`` over the portal's simulated-tick telemetry.

The bench runs the *same* workload twice —

* the **hedged** leg (the shipped configuration) must come out with
  every serve SLO burning below 1.0 on both windows: hedging turns a
  down replica's ``fail_after`` timeout into a ``hedge_after`` detour,
  so the p99 stays inside the latency budget while replicas die;
* the **unhedged** leg must breach ``serve-latency-p99``: without the
  hedge, every query that picks a dead primary eats the full timeout
  until the breaker opens, and the p99 blows through the target.

The second leg is what keeps the first honest — if the chaos schedule
ever stops hurting, the unhedged leg stops breaching and the suite
fails, so the hedged leg's pass cannot go vacuous.

Time is simulated (sha256 service-time draws on a shared
:class:`~repro.obs.clock.FakeClock`), so the *workload*, the chaos
schedule, and each replica's per-query behaviour are deterministic;
thread interleaving can wobble aggregate counts by a few queries,
which is why the committed artifact is asserted on robust aggregates
(breach verdicts, kill/restore counts, status totals), not exact
latencies.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.etap import Etap, EtapConfig
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs import FakeClock
from repro.obs.slo import SloEngine, load_slo_config
from repro.obs.timeseries import Telemetry
from repro.obs.tracer import Tracer
from repro.robustness.faults import get_profile
from repro.serve import (
    AdmissionController,
    AlertPortal,
    ChaosMonkey,
    LoadGenerator,
)

from bench_serve import serving_queries

#: Committed artifact; regenerating it is the point of the bench.
DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_serve_chaos.json"

#: The committed SLO config the acceptance verdicts come from.
SLO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "slos.yaml"


def chaos_queries(n_variants: int = 60) -> list[str]:
    """The serve mix, widened so the cluster actually gets exercised.

    ``bench_serve``'s ~25 queries under zipf hit the cache >95% of the
    time, and cache hits never touch a replica — or advance the
    simulated clock that drives the chaos schedule.  Suffix variants
    keep the same zipf shape while making most requests miss, so the
    load reaches the router and the monkey gets time to do its work.
    """
    base = serving_queries()
    return [
        f"{query} v{variant}"
        for variant in range(n_variants)
        for query in base
    ]


def serve_slos() -> list:
    """The ``serve`` component's specs from the committed config."""
    return [
        spec
        for spec in load_slo_config(SLO_CONFIG)
        if spec.component == "serve"
    ]


def run_leg(
    etap,
    hedging: bool,
    n_clients: int = 6,
    n_queries: int = 1200,
    n_shards: int = 2,
    n_replicas: int = 4,
    seed: int = 7,
    profile: str = "lossy",
    hedge_after: float = 0.05,
    fail_after: float = 0.8,
    chaos_period: float = 1.0,
    chaos_down_for: float = 0.9,
    failure_threshold: int = 5,
    cool_off: float = 2.0,
) -> dict:
    """One full chaos run (hedged or not) over a gathered etap."""
    clock = FakeClock()
    telemetry = Telemetry(clock=clock)
    tracer = Tracer(windows=telemetry)
    admission = AdmissionController(
        rate=1e9,
        burst=float(max(1, n_queries)),
        max_pending=max(64, n_clients * 4),
        clock=clock,
    )
    with AlertPortal.from_etap(
        etap,
        n_shards=n_shards,
        admission=admission,
        clock=clock,
        tracer=tracer,
        n_replicas=n_replicas,
        hedge_after=hedge_after,
        fail_after=fail_after,
        hedging=hedging,
        replica_fault_profile=get_profile(profile),
        fault_seed=seed,
        # Threshold 5: the lossy profile's 15% dead draws must not
        # cascade breakers open (cool-off dwarfs the simulated run);
        # only a genuinely down replica repeats failures that fast.
        replica_failure_threshold=failure_threshold,
        replica_cool_off=cool_off,
    ) as portal:
        monkey = ChaosMonkey(
            portal.replicas,
            period=chaos_period,
            down_for=chaos_down_for,
        )
        portal.router.chaos = monkey
        generator = LoadGenerator(
            portal,
            chaos_queries(),
            n_clients=n_clients,
            n_queries=n_queries,
            seed=seed,
        )
        report = generator.run()
        monkey.finish()
        engine = SloEngine(serve_slos(), tracer)
        statuses = engine.evaluate()
        replica_stats = portal.replicas.stats()
        degraded = telemetry.window(
            "serve.degraded", 3600.0, now=clock.now()
        ).count

    sketch = telemetry.sketch("serve.latency")
    return {
        "hedging": hedging,
        "statuses": dict(sorted(report.statuses.items())),
        "cache_hit_rate": round(report.cache_hit_rate, 4),
        "ticks_elapsed": round(clock.now(), 4),
        "sim_p50_s": round(sketch.quantile(0.5), 6),
        "sim_p99_s": round(sketch.quantile(0.99), 6),
        # The monkey kills/restores one replica of *every* group per
        # cycle, so these counts hold per group as well as in total.
        "kills": monkey.kills,
        "restores": monkey.restores,
        "degraded_reads": degraded,
        "replica_groups": replica_stats["groups"],
        "slos": {
            status.name: {
                "burn_fast": round(status.burn_fast, 4),
                "burn_slow": round(status.burn_slow, 4),
                "value_fast": round(status.value_fast, 6),
                "breaching": status.breaching,
            }
            for status in statuses
        },
        "breaching": sorted(
            status.name for status in statuses if status.breaching
        ),
    }


def measure(
    n_docs: int = 400,
    n_clients: int = 6,
    n_queries: int = 1200,
    n_shards: int = 2,
    n_replicas: int = 4,
    seed: int = 7,
    profile: str = "lossy",
    out: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Run both legs and (optionally) write ``BENCH_serve_chaos.json``."""
    web = build_web(n_docs, CorpusConfig(seed=seed))
    etap = Etap.from_web(web, config=EtapConfig())
    etap.gather()
    legs = {
        name: run_leg(
            etap,
            hedging=hedging,
            n_clients=n_clients,
            n_queries=n_queries,
            n_shards=n_shards,
            n_replicas=n_replicas,
            seed=seed,
            profile=profile,
        )
        for name, hedging in (("hedged", True), ("unhedged", False))
    }
    payload = {
        "bench": "serve_chaos",
        "n_docs": n_docs,
        "n_clients": n_clients,
        "n_queries": n_queries,
        "n_shards": n_shards,
        "n_replicas": n_replicas,
        "seed": seed,
        "profile": profile,
        "legs": legs,
    }
    if out is not None:
        Path(out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return payload


#: Schema floor for BENCH_serve_chaos.json; the smoke test enforces it.
REQUIRED_KEYS = frozenset(
    {
        "bench", "n_docs", "n_clients", "n_queries", "n_shards",
        "n_replicas", "seed", "profile", "legs",
    }
)

#: Every leg must carry these.
LEG_KEYS = frozenset(
    {
        "hedging", "statuses", "cache_hit_rate", "ticks_elapsed",
        "sim_p50_s", "sim_p99_s", "kills", "restores",
        "degraded_reads", "replica_groups", "slos", "breaching",
    }
)


def validate_payload(payload: dict) -> list[str]:
    """Schema- and acceptance-check a chaos payload; returns errors.

    Beyond shape, this encodes the acceptance criteria themselves:
    the hedged leg must hold every serve SLO under burn 1.0 on both
    windows *while* at least one replica per group was killed and
    restored, and the unhedged control must breach the latency SLO —
    otherwise the chaos schedule is not actually hurting and the
    hedged pass proves nothing.
    """
    errors = [
        f"missing key {key!r}"
        for key in sorted(REQUIRED_KEYS - set(payload))
    ]
    if errors:
        return errors
    if payload["bench"] != "serve_chaos":
        errors.append(
            f"bench is {payload['bench']!r}, not 'serve_chaos'"
        )
    legs = payload["legs"]
    if set(legs) != {"hedged", "unhedged"}:
        return errors + ["legs must be exactly {hedged, unhedged}"]
    for name, leg in legs.items():
        for key in sorted(LEG_KEYS - set(leg)):
            errors.append(f"leg {name!r} missing key {key!r}")
    if errors:
        return errors
    for name, leg in legs.items():
        if sum(leg["statuses"].values()) != payload["n_queries"]:
            errors.append(
                f"leg {name!r}: statuses must account for every query"
            )
        if leg["kills"] < 1 or leg["restores"] < 1:
            errors.append(
                f"leg {name!r}: chaos never killed+restored a replica"
            )
        if leg["kills"] != leg["restores"]:
            errors.append(
                f"leg {name!r}: every kill must be restored"
            )
        for group in leg["replica_groups"]:
            if group["up"] != group["n_replicas"]:
                errors.append(
                    f"leg {name!r}: shard {group['shard']} ended with "
                    f"{group['up']}/{group['n_replicas']} replicas up"
                )
    hedged, unhedged = legs["hedged"], legs["unhedged"]
    if hedged["hedging"] is not True or unhedged["hedging"] is not False:
        errors.append("legs mislabelled: hedging flags do not match")
    for slo_name, verdict in hedged["slos"].items():
        if verdict["burn_fast"] >= 1.0 or verdict["burn_slow"] >= 1.0:
            errors.append(
                f"hedged leg burns {slo_name} at "
                f"fast={verdict['burn_fast']} slow={verdict['burn_slow']}"
                " (must stay < 1.0 on both windows)"
            )
    if hedged["breaching"]:
        errors.append(
            f"hedged leg breaches {hedged['breaching']}; the whole "
            "point is that hedging keeps the SLOs green under chaos"
        )
    if "serve-latency-p99" not in unhedged["breaching"]:
        errors.append(
            "unhedged control does not breach serve-latency-p99 — "
            "the chaos schedule is too gentle; the hedged pass is "
            "vacuous"
        )
    return errors


def bench_serve_chaos(benchmark):
    payload = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name in ("hedged", "unhedged"):
        leg = payload["legs"][name]
        print(
            f"\n{name}: sim p99 {leg['sim_p99_s'] * 1000:.1f}ms  "
            f"kills {leg['kills']}  "
            f"degraded {leg['degraded_reads']}  "
            f"breaching {leg['breaching'] or 'none'}"
        )
    benchmark.extra_info.update(payload)
    assert not validate_payload(payload)


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2, sort_keys=True))
