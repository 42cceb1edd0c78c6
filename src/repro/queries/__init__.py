"""Smart-query planner: generate, evaluate, and budget query portfolios.

The paper hand-writes five smart queries per sales driver (section
3.3.1, step 1).  Endrullis et al. ("Evaluation of Query Generators for
Entity Search Engines", PAPERS.md) show that generated query candidates
vary wildly in coverage, precision, and cost, and that selecting a
*portfolio* of queries under a crawl budget dominates any single hand
query.  This package treats query selection as a measured artifact:

* :mod:`repro.queries.generate` — deterministic candidate expansion
  over per-driver templates, verb-phrase lexicons, and entity slots;
* :mod:`repro.queries.evaluate` — score each candidate's coverage /
  precision / crawl cost against ground truth from the gathered store;
* :mod:`repro.queries.planner` — greedy marginal-gain portfolio
  selection under an explicit page budget, with analyst-feedback
  re-weighting;
* :mod:`repro.queries.recipes` — saved scenario configs
  (``configs/recipes/*.yaml``) runnable end to end via
  ``repro recipe run``.

See docs/QUERIES.md for the full tour.
"""

from repro.queries.evaluate import (
    CandidateEvaluation,
    QueryEvaluator,
    StoreGroundTruth,
)
from repro.queries.generate import (
    CandidateGenerator,
    DriverQueryLexicon,
    QueryCandidate,
    default_lexicons,
)
from repro.queries.planner import (
    FeedbackWeights,
    PlannerConfig,
    Portfolio,
    PortfolioPlanner,
    SelectedQuery,
)
from repro.queries.recipes import (
    Recipe,
    RecipeError,
    RecipeResult,
    load_recipe,
    run_recipe,
    validate_recipe_data,
)

__all__ = [
    "CandidateEvaluation",
    "CandidateGenerator",
    "DriverQueryLexicon",
    "FeedbackWeights",
    "PlannerConfig",
    "Portfolio",
    "PortfolioPlanner",
    "QueryCandidate",
    "QueryEvaluator",
    "Recipe",
    "RecipeError",
    "RecipeResult",
    "SelectedQuery",
    "StoreGroundTruth",
    "default_lexicons",
    "load_recipe",
    "run_recipe",
    "validate_recipe_data",
]
