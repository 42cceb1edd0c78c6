"""From-scratch ML: NB, SVM, logistic regression, noise handling."""

from repro.ml.base import check_fit_inputs
from repro.ml.calibration import (
    PlattScaler,
    ReliabilityBin,
    brier_score,
    expected_calibration_error,
    reliability_bins,
)
from repro.ml.ensemble import VotingEnsemble
from repro.ml.logreg import LogisticRegression, fit_pu_weighted
from repro.ml.metrics import (
    ConfusionMatrix,
    PrecisionRecallF1,
    confusion_matrix,
    precision_recall_f1,
)
from repro.ml.naive_bayes import BernoulliNaiveBayes, MultinomialNaiveBayes
from repro.ml.noise import (
    DenoiseIteration,
    DenoiseResult,
    IterativeNoiseReducer,
)
from repro.ml.svm import LinearSvm

__all__ = [
    "BernoulliNaiveBayes",
    "ConfusionMatrix",
    "DenoiseIteration",
    "DenoiseResult",
    "IterativeNoiseReducer",
    "LinearSvm",
    "LogisticRegression",
    "MultinomialNaiveBayes",
    "PlattScaler",
    "PrecisionRecallF1",
    "ReliabilityBin",
    "VotingEnsemble",
    "brier_score",
    "check_fit_inputs",
    "confusion_matrix",
    "expected_calibration_error",
    "fit_pu_weighted",
    "precision_recall_f1",
    "reliability_bins",
]
