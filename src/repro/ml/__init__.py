"""From-scratch ML: NB, SVM, logistic regression, EM-NB, noise handling."""

from repro.ml.base import Classifier, check_fit_inputs
from repro.ml.calibration import (
    PlattScaler,
    ReliabilityBin,
    brier_score,
    expected_calibration_error,
    reliability_bins,
)
from repro.ml.em_nb import EmNaiveBayes
from repro.ml.ensemble import VotingEnsemble
from repro.ml.logreg import LogisticRegression, fit_pu_weighted
from repro.ml.metrics import (
    ConfusionMatrix,
    PrecisionRecallF1,
    accuracy,
    confusion_matrix,
    precision_recall_f1,
)
from repro.ml.naive_bayes import BernoulliNaiveBayes, MultinomialNaiveBayes
from repro.ml.noise import (
    DenoiseIteration,
    DenoiseResult,
    IterativeNoiseReducer,
    brodley_friedl_filter,
)
from repro.ml.svm import LinearSvm

__all__ = [
    "BernoulliNaiveBayes",
    "Classifier",
    "ConfusionMatrix",
    "DenoiseIteration",
    "DenoiseResult",
    "EmNaiveBayes",
    "IterativeNoiseReducer",
    "LinearSvm",
    "LogisticRegression",
    "MultinomialNaiveBayes",
    "PlattScaler",
    "PrecisionRecallF1",
    "ReliabilityBin",
    "VotingEnsemble",
    "accuracy",
    "brier_score",
    "brodley_friedl_filter",
    "check_fit_inputs",
    "confusion_matrix",
    "expected_calibration_error",
    "fit_pu_weighted",
    "precision_recall_f1",
    "reliability_bins",
]
