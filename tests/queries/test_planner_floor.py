"""The planner's floor against the hand-written smart queries.

The 40-page budget binds: a looser one lets the seeds stop early at
near-perfect precision, and the comparison goes vacuous.
"""

from __future__ import annotations

import pytest

from repro.core.drivers import available_driver_ids, get_driver
from repro.core.etap import Etap, EtapConfig
from repro.corpus.generator import DOC_TYPE_FOR_DRIVER, CorpusConfig
from repro.corpus.web import build_web
from repro.queries.recipes import PlannerSettings, plan_portfolios

BUDGET = 40
TOP_K = 40


def improved(plan) -> bool:
    """Planner wins on precision@budget, or ties at strictly lower cost."""
    planned, baseline = plan.planned, plan.baseline
    return (planned.precision_at_budget, -planned.total_cost) > (
        baseline.precision_at_budget, -baseline.total_cost
    )


@pytest.fixture(scope="module")
def plans():
    mix = dict(CorpusConfig().mix)
    for driver_id in available_driver_ids():
        mix.setdefault(DOC_TYPE_FOR_DRIVER[driver_id], 0.07)
    web = build_web(400, CorpusConfig(seed=7, mix=mix))
    etap = Etap.from_web(
        web,
        drivers=[get_driver(d) for d in available_driver_ids()],
        config=EtapConfig(top_k_per_query=TOP_K),
    )
    etap.gather()
    return plan_portfolios(
        etap,
        PlannerSettings(budget=BUDGET, top_k=TOP_K, max_candidates=120),
    )


def test_every_plan_is_non_empty_and_within_budget(plans):
    assert set(plans) == set(available_driver_ids())
    for driver_id, plan in plans.items():
        assert plan.n_candidates > 0, driver_id
        assert plan.planned.selected, driver_id
        assert plan.planned.total_cost <= BUDGET, driver_id


def test_planner_beats_the_seed_queries_on_both_extended_drivers(plans):
    winners = {d for d, plan in plans.items() if improved(plan)}
    assert len(winners) >= 2, winners
    assert {"funding_rounds", "layoffs"} <= winners
