"""Property suite: the planner's invariants under arbitrary pools.

Greedy selection over a submodular coverage gain and modular page cost
guarantees three things regardless of the candidate pool: the budget
is never exceeded, the selected gain-per-page ratios are non-increasing
(each pick was the best available, and coverage gains only shrink as
docs get covered), and planning is fully deterministic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries.evaluate import CandidateEvaluation
from repro.queries.generate import QueryCandidate
from repro.queries.planner import PlannerConfig, PortfolioPlanner

DOC_IDS = tuple(f"doc-{i}" for i in range(16))


@st.composite
def evaluation_pools(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    pool = []
    for i in range(n):
        docs = tuple(draw(st.lists(
            st.sampled_from(DOC_IDS), unique=True, max_size=6
        )))
        relevant = frozenset(
            doc for doc in docs if draw(st.booleans())
        )
        source = draw(st.sampled_from(["seed", "template"]))
        pool.append(CandidateEvaluation(
            candidate=QueryCandidate(
                "layoffs", f"q{i}", source=source
            ),
            docs=docs,
            relevant=relevant,
        ))
    return pool


budgets = st.integers(min_value=0, max_value=25)


@settings(deadline=None)
@given(pool=evaluation_pools(), budget=budgets)
def test_cost_never_exceeds_budget(pool, budget):
    planner = PortfolioPlanner(PlannerConfig(budget=budget))
    assert planner.plan("layoffs", pool).total_cost <= budget
    assert planner.baseline("layoffs", pool).total_cost <= budget


@settings(deadline=None)
@given(pool=evaluation_pools(), budget=budgets)
def test_gain_per_page_is_non_increasing(pool, budget):
    portfolio = PortfolioPlanner(PlannerConfig(budget=budget)).plan(
        "layoffs", pool
    )
    ratios = [item.gain_per_page for item in portfolio.selected]
    assert all(
        earlier >= later - 1e-9
        for earlier, later in zip(ratios, ratios[1:])
    )


@settings(deadline=None)
@given(pool=evaluation_pools(), budget=budgets)
def test_planning_is_deterministic(pool, budget):
    config = PlannerConfig(budget=budget)
    first = PortfolioPlanner(config).plan("layoffs", pool)
    second = PortfolioPlanner(config).plan("layoffs", list(pool))
    assert first == second


@settings(deadline=None)
@given(pool=evaluation_pools(), budget=budgets)
def test_covered_is_exactly_the_union_of_selected(pool, budget):
    portfolio = PortfolioPlanner(PlannerConfig(budget=budget)).plan(
        "layoffs", pool
    )
    union = frozenset().union(
        *(item.evaluation.relevant for item in portfolio.selected)
    ) if portfolio.selected else frozenset()
    assert portfolio.covered == union


@settings(deadline=None)
@given(pool=evaluation_pools(), budget=budgets)
def test_every_selection_has_positive_gain_and_cost(pool, budget):
    portfolio = PortfolioPlanner(PlannerConfig(budget=budget)).plan(
        "layoffs", pool
    )
    for item in portfolio.selected:
        assert item.marginal_gain > 0
        assert item.marginal_cost > 0
