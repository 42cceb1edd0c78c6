"""Portfolio planner unit tests: greedy selection, budget, feedback."""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog
from repro.obs.export import derive_gauges
from repro.obs.tracer import Tracer
from repro.queries.evaluate import CandidateEvaluation
from repro.queries.generate import QueryCandidate
from repro.queries.planner import (
    FeedbackWeights,
    PlannerConfig,
    PortfolioPlanner,
)

DRIVER = "layoffs"


def ev(query, docs, relevant, source="template"):
    """A synthetic evaluation: retrieved docs with a relevant subset."""
    return CandidateEvaluation(
        candidate=QueryCandidate(DRIVER, query, source=source),
        docs=tuple(docs),
        relevant=frozenset(relevant),
    )


class TestPlannerConfig:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            PlannerConfig(budget=-1)

    def test_negative_max_queries_rejected(self):
        with pytest.raises(ValueError, match="max_queries"):
            PlannerConfig(max_queries=-1)


class TestGreedySelection:
    def test_best_gain_per_page_selected_first(self):
        pool = [
            # 2 relevant / 4 pages = 0.5 per page.
            ev("broad", ["a", "b", "c", "d"], ["a", "b"]),
            # 1 relevant / 1 page = 1.0 per page: picked first.
            ev("sharp", ["e"], ["e"]),
        ]
        portfolio = PortfolioPlanner(PlannerConfig(budget=10)).plan(
            DRIVER, pool
        )
        assert portfolio.queries == ("sharp", "broad")
        assert portfolio.selected[0].marginal_gain == 1.0
        assert portfolio.selected[1].cumulative_cost == 5

    def test_marginal_gain_discounts_already_covered_docs(self):
        pool = [
            ev("first", ["a", "b"], ["a", "b"]),
            # Overlaps entirely with "first": zero marginal gain once
            # "first" wins the alphabetical tie.
            ev("zz-echo", ["a", "b"], ["a", "b"]),
            ev("fresh", ["c", "d", "e"], ["c"]),
        ]
        portfolio = PortfolioPlanner(PlannerConfig(budget=10)).plan(
            DRIVER, pool
        )
        assert portfolio.queries == ("first", "fresh")
        assert portfolio.coverage == 3

    def test_budget_is_a_hard_bound(self):
        pool = [ev(f"q{i}", [f"d{i}a", f"d{i}b"], [f"d{i}a"])
                for i in range(10)]
        portfolio = PortfolioPlanner(PlannerConfig(budget=5)).plan(
            DRIVER, pool
        )
        assert portfolio.total_cost <= 5
        assert len(portfolio.selected) == 2  # 2 pages each

    def test_zero_cost_and_zero_gain_candidates_never_selected(self):
        pool = [
            ev("empty", [], []),
            ev("irrelevant", ["x", "y"], []),
            ev("good", ["a"], ["a"]),
        ]
        portfolio = PortfolioPlanner(PlannerConfig(budget=10)).plan(
            DRIVER, pool
        )
        assert portfolio.queries == ("good",)

    def test_max_queries_caps_portfolio_size(self):
        pool = [ev(f"q{i}", [f"d{i}"], [f"d{i}"]) for i in range(6)]
        portfolio = PortfolioPlanner(
            PlannerConfig(budget=100, max_queries=2)
        ).plan(DRIVER, pool)
        assert len(portfolio.selected) == 2

    def test_tie_breaks_are_deterministic_by_query_string(self):
        pool = [
            ev("zeta", ["a"], ["a"]),
            ev("alpha", ["b"], ["b"]),
        ]
        portfolio = PortfolioPlanner(PlannerConfig(budget=10)).plan(
            DRIVER, pool
        )
        assert portfolio.queries == ("alpha", "zeta")

    def test_covered_is_union_of_selected_relevant(self):
        pool = [
            ev("one", ["a", "b"], ["a"]),
            ev("two", ["c", "d"], ["c", "d"]),
        ]
        portfolio = PortfolioPlanner(PlannerConfig(budget=10)).plan(
            DRIVER, pool
        )
        assert portfolio.covered == frozenset({"a", "c", "d"})
        assert portfolio.precision_at_budget == pytest.approx(3 / 4)


class TestBaseline:
    def test_seeds_run_in_written_order(self):
        pool = [
            ev("seed-b", ["c"], ["c"], source="seed"),
            ev("template-x", ["z"], ["z"]),
            ev("seed-a", ["a", "b"], ["a"], source="seed"),
        ]
        baseline = PortfolioPlanner(PlannerConfig(budget=10)).baseline(
            DRIVER, pool
        )
        assert baseline.queries == ("seed-b", "seed-a")

    def test_baseline_skips_over_budget_seeds(self):
        pool = [
            ev("cheap", ["a"], ["a"], source="seed"),
            ev("huge", [f"d{i}" for i in range(9)], ["d0"],
               source="seed"),
            ev("also-cheap", ["b"], ["b"], source="seed"),
        ]
        baseline = PortfolioPlanner(PlannerConfig(budget=3)).baseline(
            DRIVER, pool
        )
        assert baseline.queries == ("cheap", "also-cheap")
        assert baseline.total_cost == 2


class TestFeedbackWeights:
    def test_weights_are_per_driver(self):
        weights = FeedbackWeights({(DRIVER, "doc-1"): 2.0})
        assert weights.weight(DRIVER, "doc-1") == 2.0
        assert weights.weight(DRIVER, "doc-2") == 1.0
        assert weights.weight("funding_rounds", "doc-1") == 1.0

    def test_feedback_steers_selection(self):
        pool = [
            ev("confirmed-path", ["a", "b"], ["a"]),
            ev("rejected-path", ["c", "d"], ["c"]),
        ]
        weights = FeedbackWeights({(DRIVER, "c"): 0.25, (DRIVER, "a"): 2.0})
        planner = PortfolioPlanner(
            PlannerConfig(budget=2), weights=weights
        )
        portfolio = planner.plan(DRIVER, pool)
        assert portfolio.queries == ("confirmed-path",)


class TestObservability:
    def test_counters_and_portfolio_event(self):
        log = EventLog()
        tracer = Tracer(recorder=log)
        pool = [
            ev("one", ["a"], ["a"]),
            ev("two", ["b", "c"], ["b"]),
        ]
        planner = PortfolioPlanner(
            PlannerConfig(budget=10), tracer=tracer
        )
        portfolio = planner.plan(DRIVER, pool)

        counters = tracer.registry.counters
        assert counters["queries.portfolios_selected"] == 1
        assert counters["queries.queries_selected"] == 2
        assert counters["queries.pages_budgeted"] == 3

        events = log.events("portfolio_selected")
        assert len(events) == 1
        payload = events[0].payload
        assert payload["driver_id"] == DRIVER
        assert payload["budget"] == 10
        assert payload["n_candidates"] == 2
        assert payload["n_selected"] == 2
        assert payload["total_cost"] == 3
        assert payload["precision_at_budget"] == pytest.approx(
            portfolio.precision_at_budget, abs=1e-4
        )

    def test_derive_gauges_exports_planner_state(self):
        tracer = Tracer()
        planner = PortfolioPlanner(
            PlannerConfig(budget=10), tracer=tracer
        )
        tracer.count("queries.candidates_evaluated", 4)
        portfolio = planner.plan(
            DRIVER, [ev("one", ["a"], ["a"]), ev("none", ["b"], [])]
        )
        gauges = derive_gauges(
            tracer.registry, portfolios=[portfolio]
        )
        assert gauges["queries_selection_rate"] == pytest.approx(1 / 4)
        label = f'{{driver="{DRIVER}"}}'
        assert gauges[f"queries_portfolio_size{label}"] == 1.0
        assert gauges[f"queries_portfolio_cost{label}"] == 1.0
        assert gauges[f"queries_portfolio_budget{label}"] == 10.0
        assert gauges[f"queries_portfolio_precision{label}"] == 1.0
