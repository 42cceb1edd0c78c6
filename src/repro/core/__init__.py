"""ETAP core: drivers, snippets, training, classification, ranking."""

from repro.core.alerts import Alert, AlertService, PollReport
from repro.core.classifier import TrainingSummary, TriggerEventClassifier
from repro.core.persistence import (
    load_classifier,
    load_classifiers,
    save_classifier,
    save_classifiers,
)
from repro.core.company import CompanyNormalizer, canonical_key
from repro.core.drivers import (
    SalesDriver,
    all_of,
    any_of,
    builtin_drivers,
    get_driver,
    has,
    has_at_least,
    has_keyword,
)
from repro.core.etap import Etap, EtapConfig
from repro.core.feedback import FeedbackLoop, RetrainReport, Verdict
from repro.core.graph import (
    CentralCompany,
    build_company_graph,
    central_companies,
    deal_pairs,
)
from repro.core.industry import (
    IndustryProfile,
    get_industry,
    it_industry,
    steel_industry,
)
from repro.core.lexicon import (
    OrientationLexicon,
    induce_lexicon,
    revenue_growth_lexicon,
)
from repro.core.ranking import (
    CompanyRanker,
    CompanyScore,
    RecencyAdjustedRanker,
    SemanticOrientationRanker,
    TriggerEvent,
    make_trigger_events,
    rank_events,
)
from repro.core.snippets import Snippet, SnippetGenerator
from repro.core.temporal import (
    TemporalReading,
    extract_years,
    recency_multiplier,
    resolve,
    score_with_recency,
)
from repro.core.training import (
    AnnotatedSnippet,
    NoisyPositiveReport,
    TrainingDataGenerator,
)

__all__ = [
    "Alert",
    "AlertService",
    "AnnotatedSnippet",
    "CentralCompany",
    "build_company_graph",
    "central_companies",
    "deal_pairs",
    "CompanyNormalizer",
    "CompanyRanker",
    "CompanyScore",
    "Etap",
    "EtapConfig",
    "FeedbackLoop",
    "IndustryProfile",
    "NoisyPositiveReport",
    "OrientationLexicon",
    "PollReport",
    "RecencyAdjustedRanker",
    "RetrainReport",
    "SalesDriver",
    "SemanticOrientationRanker",
    "Snippet",
    "SnippetGenerator",
    "TemporalReading",
    "TrainingDataGenerator",
    "TrainingSummary",
    "TriggerEvent",
    "Verdict",
    "TriggerEventClassifier",
    "all_of",
    "any_of",
    "builtin_drivers",
    "canonical_key",
    "extract_years",
    "get_driver",
    "get_industry",
    "it_industry",
    "has",
    "has_at_least",
    "has_keyword",
    "induce_lexicon",
    "load_classifier",
    "load_classifiers",
    "make_trigger_events",
    "rank_events",
    "recency_multiplier",
    "resolve",
    "revenue_growth_lexicon",
    "save_classifier",
    "save_classifiers",
    "score_with_recency",
    "steel_industry",
]
