"""Saved scenario recipes: drivers, corpus, faults, budget, planner.

A recipe is a YAML (or JSON) file describing one end-to-end scenario —
which drivers to hunt, how big a synthetic web, which fault profile,
what crawl budget the planner gets — validated against an explicit
schema so a typo'd key or unknown driver fails with every problem
listed, not a stack trace.  ``repro recipe run`` executes it: gather,
plan portfolios per driver, train on the planned queries, extract, and
mint alerts through evolution cycles.  Committed examples live under
``configs/recipes/``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.alerts import Alert, AlertService
from repro.core.drivers import available_driver_ids, get_driver
from repro.core.etap import Etap, EtapConfig
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import (
    DOC_TYPE_FOR_DRIVER,
    DOC_TYPES,
    CorpusConfig,
)
from repro.corpus.web import build_web
from repro.obs.tracer import NULL_TRACER
from repro.queries.evaluate import QueryEvaluator, StoreGroundTruth
from repro.queries.generate import CandidateGenerator
from repro.queries.planner import (
    FeedbackWeights,
    PlannerConfig,
    Portfolio,
    PortfolioPlanner,
)
from repro.robustness import FaultyWeb, get_profile, profile_names

#: Default corpus-mix weight granted to a recipe driver's trigger doc
#: type when the recipe does not override ``mix`` — matches the ~7%
#: share the paper-faithful mix gives each builtin trigger type.
_DRIVER_MIX_WEIGHT = 0.07


class RecipeError(ValueError):
    """A recipe failed schema validation; ``problems`` lists why."""

    def __init__(self, source: str, problems: Sequence[str]) -> None:
        self.source = source
        self.problems = list(problems)
        details = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(
            f"invalid recipe {source}:\n{details}"
        )


@dataclass(frozen=True)
class PlannerSettings:
    enabled: bool = True
    budget: int = 200
    top_k: int = 40
    max_queries: int | None = None
    max_candidates: int = 120


@dataclass(frozen=True)
class AlertSettings:
    threshold: float = 0.5
    cycles: int = 1
    docs_per_cycle: int = 30


@dataclass(frozen=True)
class Recipe:
    """One validated scenario configuration."""

    name: str
    drivers: tuple[str, ...]
    description: str = ""
    n_docs: int = 600
    seed: int = 7
    fault_profile: str = "none"
    mix: dict[str, float] | None = None
    top_k_per_query: int = 40
    negative_sample_size: int = 600
    planner: PlannerSettings = field(default_factory=PlannerSettings)
    alerts: AlertSettings = field(default_factory=AlertSettings)

    def corpus_mix(self) -> dict[str, float]:
        """The corpus mix this recipe gathers over.

        An explicit ``mix`` wins; otherwise the paper-faithful default
        mix is extended so every recipe driver's trigger doc type is
        actually on the web.
        """
        if self.mix is not None:
            return dict(self.mix)
        mix = dict(CorpusConfig().mix)
        for driver_id in self.drivers:
            doc_type = DOC_TYPE_FOR_DRIVER[driver_id]
            mix.setdefault(doc_type, _DRIVER_MIX_WEIGHT)
        return mix


# -- schema validation --------------------------------------------------------

_TOP_LEVEL_FIELDS = {
    "name", "description", "drivers", "n_docs", "seed",
    "fault_profile", "mix", "top_k_per_query",
    "negative_sample_size", "planner", "alerts",
}
_PLANNER_FIELDS = {
    "enabled", "budget", "top_k", "max_queries", "max_candidates",
}
_ALERT_FIELDS = {"threshold", "cycles", "docs_per_cycle"}


def _check_int(
    data: Mapping[str, Any], key: str, problems: list[str],
    minimum: int = 1, prefix: str = "",
) -> None:
    value = data.get(key)
    if value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{prefix}{key} must be an integer")
    elif value < minimum:
        problems.append(f"{prefix}{key} must be >= {minimum}")


def validate_recipe_data(data: Any) -> list[str]:
    """Every schema problem in a parsed recipe document (empty = valid)."""
    if not isinstance(data, Mapping):
        return ["recipe must be a mapping of fields"]
    problems: list[str] = []
    for key in sorted(set(data) - _TOP_LEVEL_FIELDS):
        problems.append(f"unknown field {key!r}")

    name = data.get("name")
    if not isinstance(name, str) or not name.strip():
        problems.append("name is required and must be a non-empty string")

    drivers = data.get("drivers")
    if not isinstance(drivers, (list, tuple)) or not drivers:
        problems.append("drivers is required and must be a non-empty list")
    else:
        known = set(available_driver_ids())
        for driver_id in drivers:
            if driver_id not in known:
                problems.append(
                    f"unknown driver {driver_id!r}; "
                    f"available: {sorted(known)}"
                )

    _check_int(data, "n_docs", problems)
    _check_int(data, "seed", problems, minimum=0)
    _check_int(data, "top_k_per_query", problems)
    _check_int(data, "negative_sample_size", problems)

    profile = data.get("fault_profile")
    if profile is not None and profile not in profile_names():
        problems.append(
            f"unknown fault_profile {profile!r}; "
            f"available: {profile_names()}"
        )

    mix = data.get("mix")
    if mix is not None:
        if not isinstance(mix, Mapping):
            problems.append("mix must be a mapping of doc type -> weight")
        else:
            for doc_type, weight in mix.items():
                if doc_type not in DOC_TYPES:
                    problems.append(
                        f"mix references unknown doc type {doc_type!r}"
                    )
                if not isinstance(weight, (int, float)) or weight <= 0:
                    problems.append(
                        f"mix weight for {doc_type!r} must be > 0"
                    )

    planner = data.get("planner")
    if planner is not None:
        if not isinstance(planner, Mapping):
            problems.append("planner must be a mapping")
        else:
            for key in sorted(set(planner) - _PLANNER_FIELDS):
                problems.append(f"unknown planner field {key!r}")
            if "enabled" in planner and not isinstance(
                planner["enabled"], bool
            ):
                problems.append("planner.enabled must be a boolean")
            _check_int(planner, "budget", problems, prefix="planner.")
            _check_int(planner, "top_k", problems, prefix="planner.")
            _check_int(
                planner, "max_queries", problems, prefix="planner."
            )
            _check_int(
                planner, "max_candidates", problems, prefix="planner."
            )

    alerts = data.get("alerts")
    if alerts is not None:
        if not isinstance(alerts, Mapping):
            problems.append("alerts must be a mapping")
        else:
            for key in sorted(set(alerts) - _ALERT_FIELDS):
                problems.append(f"unknown alerts field {key!r}")
            threshold = alerts.get("threshold")
            if threshold is not None and (
                not isinstance(threshold, (int, float))
                or not 0.0 <= float(threshold) <= 1.0
            ):
                problems.append(
                    "alerts.threshold must be a number in [0, 1]"
                )
            _check_int(
                alerts, "cycles", problems, minimum=0, prefix="alerts."
            )
            _check_int(
                alerts, "docs_per_cycle", problems, prefix="alerts."
            )
    return problems


def recipe_from_data(data: Mapping[str, Any], source: str = "<data>") -> Recipe:
    """Validate a parsed recipe document and build the dataclass."""
    problems = validate_recipe_data(data)
    if problems:
        raise RecipeError(source, problems)
    planner = data.get("planner") or {}
    alerts = data.get("alerts") or {}
    return Recipe(
        name=data["name"],
        description=data.get("description", ""),
        drivers=tuple(data["drivers"]),
        n_docs=data.get("n_docs", 600),
        seed=data.get("seed", 7),
        fault_profile=data.get("fault_profile", "none"),
        mix=dict(data["mix"]) if data.get("mix") is not None else None,
        top_k_per_query=data.get("top_k_per_query", 40),
        negative_sample_size=data.get("negative_sample_size", 600),
        planner=PlannerSettings(
            enabled=planner.get("enabled", True),
            budget=planner.get("budget", 200),
            top_k=planner.get("top_k", 40),
            max_queries=planner.get("max_queries"),
            max_candidates=planner.get("max_candidates", 120),
        ),
        alerts=AlertSettings(
            threshold=alerts.get("threshold", 0.5),
            cycles=alerts.get("cycles", 1),
            docs_per_cycle=alerts.get("docs_per_cycle", 30),
        ),
    )


def load_recipe(path: str | Path) -> Recipe:
    """Load and validate a recipe from a YAML or JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise RecipeError(str(path), [f"cannot read file: {exc}"])
    if path.suffix in (".yaml", ".yml"):
        import yaml

        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise RecipeError(str(path), [f"invalid YAML: {exc}"])
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecipeError(str(path), [f"invalid JSON: {exc}"])
    return recipe_from_data(data, source=str(path))


# -- execution ----------------------------------------------------------------

@dataclass
class DriverPlan:
    """Planner output for one driver within a recipe run."""

    driver_id: str
    planned: Portfolio
    baseline: Portfolio
    n_candidates: int

    @property
    def queries(self) -> tuple[str, ...]:
        return self.planned.queries


@dataclass
class RecipeResult:
    """Everything a recipe run produced."""

    recipe: Recipe
    documents_stored: int
    pages_fetched: int
    plans: dict[str, DriverPlan]
    events_per_driver: dict[str, int]
    alerts: list[Alert]
    cycles_run: int

    def render(self) -> str:
        lines = [
            f"recipe {self.recipe.name!r}: "
            f"{self.documents_stored} documents gathered "
            f"({self.pages_fetched} pages fetched)",
        ]
        if self.plans:
            lines.append(
                f"planned portfolios "
                f"(budget {self.recipe.planner.budget} pages):"
            )
            for plan in self.plans.values():
                planned, baseline = plan.planned, plan.baseline
                lines.append(
                    f"  {plan.driver_id:22s} "
                    f"{len(planned.selected):2d}/{plan.n_candidates:3d} "
                    f"queries  cost {planned.total_cost:4d}  "
                    f"P@B {planned.precision_at_budget:.3f}  "
                    f"(seeds: cost {baseline.total_cost:4d}, "
                    f"P@B {baseline.precision_at_budget:.3f})"
                )
        lines.append("trigger events per driver:")
        for driver_id, count in self.events_per_driver.items():
            lines.append(f"  {driver_id:22s} {count:4d}")
        lines.append(
            f"alerts minted over {self.cycles_run} cycle(s): "
            f"{len(self.alerts)}"
        )
        for alert in self.alerts[:5]:
            companies = ", ".join(alert.event.companies) or "-"
            lines.append(
                f"  {alert.alert_id}  [{alert.score:.2f}] "
                f"{alert.driver_id}  ({companies})"
            )
        return "\n".join(lines)


def plan_portfolios(
    etap: Etap,
    settings: PlannerSettings,
    weights: FeedbackWeights | None = None,
    tracer=None,
) -> dict[str, DriverPlan]:
    """Generate/evaluate/plan a portfolio for every driver of an Etap."""
    tracer = NULL_TRACER if tracer is None else tracer
    generator = CandidateGenerator(
        max_candidates=settings.max_candidates, tracer=tracer
    )
    evaluator = QueryEvaluator(
        etap.engine,
        StoreGroundTruth(etap.store),
        top_k=settings.top_k,
        tracer=tracer,
    )
    planner = PortfolioPlanner(
        config=PlannerConfig(
            budget=settings.budget, max_queries=settings.max_queries
        ),
        weights=weights,
        tracer=tracer,
    )
    plans: dict[str, DriverPlan] = {}
    for driver in etap.drivers:
        candidates = generator.generate(driver)
        evaluations = evaluator.evaluate_all(candidates)
        plans[driver.driver_id] = DriverPlan(
            driver_id=driver.driver_id,
            planned=planner.plan(driver.driver_id, evaluations),
            baseline=planner.baseline(driver.driver_id, evaluations),
            n_candidates=len(evaluations),
        )
    return plans


def run_recipe(
    recipe: Recipe,
    tracer=None,
    n_docs: int | None = None,
) -> RecipeResult:
    """Execute a recipe end to end; ``n_docs`` overrides the corpus size."""
    tracer = NULL_TRACER if tracer is None else tracer
    mix = recipe.corpus_mix()
    web = build_web(
        n_docs or recipe.n_docs,
        CorpusConfig(seed=recipe.seed, mix=mix),
    )
    if recipe.fault_profile != "none":
        web = FaultyWeb(
            web, get_profile(recipe.fault_profile), seed=recipe.seed
        )
    drivers = [get_driver(driver_id) for driver_id in recipe.drivers]
    etap = Etap.from_web(
        web,
        drivers=drivers,
        config=EtapConfig(
            top_k_per_query=recipe.top_k_per_query,
            negative_sample_size=recipe.negative_sample_size,
        ),
        tracer=tracer,
    )
    gather_report = etap.gather()

    plans: dict[str, DriverPlan] = {}
    if recipe.planner.enabled:
        plans = plan_portfolios(
            etap, recipe.planner, tracer=tracer
        )
        # Train on the planned portfolios; an empty portfolio (nothing
        # gained under this budget) falls back to the hand-written
        # seeds rather than training on nothing.
        etap.drivers = [
            dataclasses.replace(
                driver,
                smart_queries=plans[driver.driver_id].queries
                or driver.smart_queries,
            )
            for driver in etap.drivers
        ]

    etap.train()
    events = etap.extract_trigger_events()
    events_per_driver = {
        driver_id: len(items) for driver_id, items in events.items()
    }

    alerts: list[Alert] = []
    cycles = recipe.alerts.cycles
    if cycles > 0:
        service = AlertService(
            etap,
            threshold=recipe.alerts.threshold,
        )
        evolver = WebEvolver(
            web, CorpusConfig(seed=recipe.seed + 1, mix=mix)
        )
        for _ in range(cycles):
            evolver.advance(recipe.alerts.docs_per_cycle)
            alerts.extend(service.poll().alerts)

    return RecipeResult(
        recipe=recipe,
        documents_stored=gather_report.documents_stored,
        pages_fetched=gather_report.pages_fetched,
        plans=plans,
        events_per_driver=events_per_driver,
        alerts=alerts,
        cycles_run=cycles,
    )
