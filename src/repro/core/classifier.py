"""The trigger-event classifier: features + denoising + scoring.

Glues the feature pipeline (abstraction -> vectorizer) to the iterative
noise-tolerant training of section 3.3.2 for one sales driver.  One
:class:`TriggerEventClassifier` is trained per driver (Figure 2 shows a
bank of per-driver two-class classifiers); its output for a snippet is
the posterior probability that the snippet is a trigger event for that
driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.training import AnnotatedSnippet
from repro.features.abstraction import AbstractionPolicy
from repro.features.vectorizer import Vectorizer, VectorizerConfig
from repro.ml.noise import (
    ClassifierFactory,
    DenoiseResult,
    IterativeNoiseReducer,
)
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.text.engine import AnnotationEngine


@dataclass
class TrainingSummary:
    """What happened during training (exposed for experiments/benches).

    ``fit_seconds`` is wall time of the whole fit; it stays 0.0 under
    the default null tracer (no clock reads on the uninstrumented path).
    """

    driver_id: str
    n_noisy_positive: int
    n_noisy_kept: int
    n_pure_positive: int
    n_negative: int
    n_iterations: int
    n_features: int
    fit_seconds: float = 0.0


class TriggerEventClassifier:
    """Per-driver snippet classifier with noise-tolerant training."""

    def __init__(
        self,
        driver_id: str,
        policy: AbstractionPolicy | None = None,
        classifier_factory: ClassifierFactory | None = None,
        vectorizer_config: VectorizerConfig | None = None,
        max_denoise_iter: int = 2,
        oversample_pure: int = 3,
        tracer: AnyTracer | None = None,
        text_engine: AnnotationEngine | None = None,
    ) -> None:
        self.driver_id = driver_id
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.policy = policy or AbstractionPolicy.paper_default()
        #: Shared annotate-once engine: feature abstraction is cached
        #: per (sentence, policy), so a bank of per-driver classifiers
        #: abstracts each sentence once, not once per driver.
        self.text_engine = text_engine or AnnotationEngine()
        self.vectorizer = Vectorizer(
            vectorizer_config or VectorizerConfig(min_df=2),
            featurize=self._featurize,
        )
        reducer_kwargs = {}
        if classifier_factory is not None:
            reducer_kwargs["classifier_factory"] = classifier_factory
        self._reducer = IterativeNoiseReducer(
            max_iter=max_denoise_iter,
            oversample_pure=oversample_pure,
            **reducer_kwargs,
        )
        self._model = None
        self.summary: TrainingSummary | None = None
        self.denoise_result: DenoiseResult | None = None

    # -- features ----------------------------------------------------------

    def _featurize(
        self, sentences: Sequence[str]
    ) -> list[tuple[tuple[str, ...], bool]]:
        return self.text_engine.features(sentences, self.policy)

    def features_of(self, item: AnnotatedSnippet) -> list[str]:
        """The snippet's feature tokens, as its matrix row counts them."""
        return self.vectorizer.tokens(item.snippet.sentences)

    @staticmethod
    def _sentence_tuples(
        items: Sequence[AnnotatedSnippet],
    ) -> list[tuple[str, ...]]:
        return [item.snippet.sentences for item in items]

    # -- training -----------------------------------------------------------

    def fit(
        self,
        noisy_positive: Sequence[AnnotatedSnippet],
        negative: Sequence[AnnotatedSnippet],
        pure_positive: Sequence[AnnotatedSnippet] = (),
    ) -> "TriggerEventClassifier":
        """Train per section 3.3.2 and record a :class:`TrainingSummary`."""
        if not noisy_positive:
            raise ValueError("noisy positive set is empty")
        if not negative:
            raise ValueError("negative set is empty")
        with self.tracer.span(f"train.fit[{self.driver_id}]") as span:
            # One product for all three sets: the vocabulary is fit on
            # their union, and each set is a row range of its matrix.
            X = self.vectorizer.fit_transform(
                self._sentence_tuples(noisy_positive)
                + self._sentence_tuples(negative)
                + self._sentence_tuples(pure_positive)
            )
            n_noisy, n_negative = len(noisy_positive), len(negative)
            X_noisy = X[:n_noisy]
            X_negative = X[n_noisy : n_noisy + n_negative]
            X_pure = X[n_noisy + n_negative :] if pure_positive else None

            result = self._reducer.fit(X_noisy, X_negative, X_pure)
            span.add_items(
                len(noisy_positive) + len(negative) + len(pure_positive)
            )
        self._model = result.model
        self.denoise_result = result
        self.summary = TrainingSummary(
            driver_id=self.driver_id,
            n_noisy_positive=len(noisy_positive),
            n_noisy_kept=int(result.kept_mask.sum()),
            n_pure_positive=len(pure_positive),
            n_negative=len(negative),
            n_iterations=result.n_iterations,
            n_features=self.vectorizer.n_features,
            fit_seconds=span.duration,
        )
        self.tracer.emit(
            "model_trained",
            driver_id=self.driver_id,
            n_noisy_positive=self.summary.n_noisy_positive,
            n_noisy_kept=self.summary.n_noisy_kept,
            n_negative=self.summary.n_negative,
            n_features=self.summary.n_features,
            n_iterations=self.summary.n_iterations,
        )
        return self

    # -- inference ----------------------------------------------------------

    def score(self, items: Sequence[AnnotatedSnippet]) -> np.ndarray:
        """Posterior probability of the trigger class per snippet."""
        if self._model is None:
            raise RuntimeError("classifier must be fit before scoring")
        if not items:
            return np.zeros(0)
        with self.tracer.timed("classifier.score_seconds"):
            X = self.vectorizer.transform(self._sentence_tuples(items))
            probabilities = self._model.predict_proba(X)[:, 1]
        self.tracer.count("classifier.snippets_scored", len(items))
        return probabilities

    def predict(
        self, items: Sequence[AnnotatedSnippet], threshold: float = 0.5
    ) -> np.ndarray:
        """Hard trigger / non-trigger decisions."""
        return (self.score(items) >= threshold).astype(np.int64)

    # -- explanation --------------------------------------------------------

    def _feature_weights(self) -> np.ndarray | None:
        """Per-feature log-odds toward the trigger class, if available.

        Works for the models this pipeline actually trains: multinomial
        NB (``feature_log_prob_``), Bernoulli NB (``_log_p/_log_q``),
        and logistic regression (``weights_``).  Exotic models (voting
        ensembles, calibrated wrappers) return ``None`` — explanation
        degrades to an empty evidence list rather than failing.
        """
        model = self._model
        if model is None:
            return None
        flp = getattr(model, "feature_log_prob_", None)
        if flp is not None:
            return np.asarray(flp[1] - flp[0])
        log_p = getattr(model, "_log_p", None)
        log_q = getattr(model, "_log_q", None)
        if log_p is not None and log_q is not None:
            delta = np.asarray(log_p) - np.asarray(log_q)
            return delta[1] - delta[0]
        weights = getattr(model, "weights_", None)
        if weights is not None:
            return np.asarray(weights)
        return None

    def explain(
        self, item: AnnotatedSnippet, top_n: int = 5
    ) -> list[tuple[str, float]]:
        """Top contributing features for one snippet's trigger score.

        Contribution = (feature count in the snippet) x (the model's
        per-feature log-odds toward the trigger class); the result is
        sorted by absolute contribution, largest first.  The provenance
        chain renders these as the alert's "feature evidence".
        """
        if self._model is None:
            raise RuntimeError("classifier must be fit before explain")
        weights = self._feature_weights()
        if weights is None:
            return []
        # Stay sparse: one snippet touches a handful of features, so
        # contributions are computed over the CSR row's nonzeros only.
        X = self.vectorizer.transform([item.snippet.sentences])
        columns = X.indices
        contributions = X.data * weights[columns]
        present = contributions != 0
        if not present.any():
            return []
        columns = columns[present]
        contributions = contributions[present]
        ranked = np.argsort(-np.abs(contributions), kind="stable")[:top_n]
        names = self.vectorizer.feature_names()
        return [
            (names[columns[i]], float(contributions[i])) for i in ranked
        ]
