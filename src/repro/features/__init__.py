"""Feature pipeline: RIG analysis, abstraction, sentence-row vectorizing."""

from repro.features.abstraction import (
    AbstractionAnalyzer,
    AbstractionPolicy,
    RigComparison,
    abstract_tokens,
    iv_pairs,
    pa_pairs,
)
from repro.features.rig import (
    conditional_entropy,
    entropy,
    joint_from_pairs,
    marginal_y,
    relative_information_gain,
)
from repro.features.vectorizer import Vectorizer, VectorizerConfig

__all__ = [
    "AbstractionAnalyzer",
    "AbstractionPolicy",
    "RigComparison",
    "Vectorizer",
    "VectorizerConfig",
    "abstract_tokens",
    "conditional_entropy",
    "entropy",
    "iv_pairs",
    "joint_from_pairs",
    "marginal_y",
    "pa_pairs",
    "relative_information_gain",
]
