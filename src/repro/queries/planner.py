"""Greedy marginal-gain portfolio selection under a crawl budget.

Given a pool of evaluated candidates, the planner picks queries one at
a time by best *weighted marginal gain per page*: the sum of weights of
relevant documents a candidate would newly cover, divided by its page
cost.  Coverage gain is submodular (a document counts once), cost is
modular (each query's result pages are fetched when it runs), so the
greedy ratio sequence is non-increasing — the property suite pins this
along with the budget bound and determinism.

:class:`FeedbackWeights` weighs each ``(driver, document)`` pair
(default 1.0), so a heavier document pulls the portfolio toward the
queries that cover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.obs.tracer import NULL_TRACER
from repro.queries.evaluate import CandidateEvaluation, seed_evaluations


class FeedbackWeights:
    """Per-document relevance weights, keyed by ``(driver_id, doc_id)``."""

    def __init__(
        self,
        weights: Mapping[tuple[str, str], float] | None = None,
        default: float = 1.0,
    ) -> None:
        self._weights = dict(weights or {})
        self.default = default

    def weight(self, driver_id: str, doc_id: str) -> float:
        return self._weights.get((driver_id, doc_id), self.default)


@dataclass(frozen=True)
class PlannerConfig:
    """Selection knobs: page budget and optional portfolio-size cap."""

    budget: int = 200
    max_queries: int | None = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.max_queries is not None and self.max_queries < 0:
            raise ValueError("max_queries must be >= 0")


@dataclass(frozen=True)
class SelectedQuery:
    """One portfolio member with its selection-time marginals."""

    evaluation: CandidateEvaluation
    marginal_gain: float
    marginal_cost: int
    cumulative_cost: int

    @property
    def gain_per_page(self) -> float:
        return (
            self.marginal_gain / self.marginal_cost
            if self.marginal_cost
            else 0.0
        )


@dataclass(frozen=True)
class Portfolio:
    """A selected query portfolio and its budgeted metrics."""

    driver_id: str
    budget: int
    selected: tuple[SelectedQuery, ...]
    covered: frozenset[str] = field(default_factory=frozenset)

    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(
            item.evaluation.candidate.query for item in self.selected
        )

    @property
    def total_cost(self) -> int:
        return sum(item.marginal_cost for item in self.selected)

    @property
    def coverage(self) -> int:
        """Distinct relevant documents the portfolio retrieves."""
        return len(self.covered)

    @property
    def precision_at_budget(self) -> float:
        """Relevant docs covered per page fetched under the budget."""
        cost = self.total_cost
        return self.coverage / cost if cost else 0.0


class PortfolioPlanner:
    """Greedy weighted-marginal-gain selection under a page budget."""

    def __init__(
        self,
        config: PlannerConfig | None = None,
        weights: FeedbackWeights | None = None,
        tracer=None,
    ) -> None:
        self.config = config or PlannerConfig()
        self.weights = weights or FeedbackWeights()
        self.tracer = NULL_TRACER if tracer is None else tracer

    def _gain(
        self,
        driver_id: str,
        evaluation: CandidateEvaluation,
        covered: frozenset[str],
    ) -> float:
        return sum(
            self.weights.weight(driver_id, doc_id)
            for doc_id in evaluation.relevant
            if doc_id not in covered
        )

    def plan(
        self,
        driver_id: str,
        evaluations: Sequence[CandidateEvaluation],
    ) -> Portfolio:
        """Select a portfolio from evaluated candidates.

        Deterministic: ties on gain-per-page break by higher absolute
        gain, then lower cost, then query string.  Candidates with zero
        gain or zero cost are never selected; selection stops when the
        budget or ``max_queries`` is exhausted.
        """
        budget = self.config.budget
        remaining = list(evaluations)
        covered: frozenset[str] = frozenset()
        selected: list[SelectedQuery] = []
        spent = 0
        with self.tracer.span("queries.plan"):
            while remaining:
                if (
                    self.config.max_queries is not None
                    and len(selected) >= self.config.max_queries
                ):
                    break
                best = None
                best_key = None
                for evaluation in remaining:
                    cost = evaluation.cost
                    if cost == 0 or spent + cost > budget:
                        continue
                    gain = self._gain(driver_id, evaluation, covered)
                    if gain <= 0.0:
                        continue
                    key = (
                        -(gain / cost),
                        -gain,
                        cost,
                        evaluation.candidate.query,
                    )
                    if best_key is None or key < best_key:
                        best, best_key = evaluation, key
                if best is None:
                    break
                gain = self._gain(driver_id, best, covered)
                spent += best.cost
                covered = covered | best.relevant
                selected.append(
                    SelectedQuery(
                        evaluation=best,
                        marginal_gain=gain,
                        marginal_cost=best.cost,
                        cumulative_cost=spent,
                    )
                )
                remaining.remove(best)
        portfolio = Portfolio(
            driver_id=driver_id,
            budget=budget,
            selected=tuple(selected),
            covered=covered,
        )
        self._record(portfolio, n_candidates=len(evaluations))
        return portfolio

    def baseline(
        self,
        driver_id: str,
        evaluations: Sequence[CandidateEvaluation],
    ) -> Portfolio:
        """The paper's behavior under the same budget accounting: run
        the hand-written seed queries in their written order, stopping
        when the next one would blow the budget."""
        covered: frozenset[str] = frozenset()
        selected: list[SelectedQuery] = []
        spent = 0
        for evaluation in seed_evaluations(evaluations):
            cost = evaluation.cost
            if cost == 0 or spent + cost > self.config.budget:
                continue
            gain = self._gain(driver_id, evaluation, covered)
            spent += cost
            covered = covered | evaluation.relevant
            selected.append(
                SelectedQuery(
                    evaluation=evaluation,
                    marginal_gain=gain,
                    marginal_cost=cost,
                    cumulative_cost=spent,
                )
            )
        return Portfolio(
            driver_id=driver_id,
            budget=self.config.budget,
            selected=tuple(selected),
            covered=covered,
        )

    def _record(self, portfolio: Portfolio, n_candidates: int) -> None:
        self.tracer.count("queries.portfolios_selected")
        self.tracer.count(
            "queries.queries_selected", len(portfolio.selected)
        )
        self.tracer.count(
            "queries.pages_budgeted", portfolio.total_cost
        )
        self.tracer.emit(
            "portfolio_selected",
            driver_id=portfolio.driver_id,
            budget=portfolio.budget,
            n_candidates=n_candidates,
            n_selected=len(portfolio.selected),
            total_cost=portfolio.total_cost,
            precision_at_budget=round(
                portfolio.precision_at_budget, 4
            ),
        )
