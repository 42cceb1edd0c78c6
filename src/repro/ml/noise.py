"""Noise-tolerant training: ETAP's iterative denoiser.

Section 3.3.2 trains from three sets — noisy positives ``Pn``, pure
positives ``Pp`` (oversampled 3x when available) and negatives ``N`` —
with an iterative scheme "similar to that proposed in [3]":

1. train the classifier with ``Pn + Pp`` as the positive class, ``N`` as
   the negative class;
2. reclassify ``Pn`` with the trained model and keep only the snippets it
   calls positive;
3. repeat "until the noisy positive data does not change considerably".

:class:`IterativeNoiseReducer` implements that loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

from repro.ml.naive_bayes import MultinomialNaiveBayes

#: Builds a fresh, unfitted classifier for each (re)training round.
ClassifierFactory = Callable[[], object]


#: Convergence threshold: iteration stops once fewer than this fraction
#: of the noisy positives change their keep/drop status.
MIN_CHANGE = 0.01
#: Degenerate-collapse guard: never keep fewer noisy positives.
MIN_KEPT = 5


def _default_factory() -> MultinomialNaiveBayes:
    return MultinomialNaiveBayes()


@dataclass
class DenoiseIteration:
    """Book-keeping for one round of the iterative scheme."""

    iteration: int
    kept_noisy: int
    dropped_noisy: int
    changed_fraction: float


@dataclass
class DenoiseResult:
    """Final model plus the per-iteration history."""

    model: object
    kept_mask: np.ndarray
    history: list[DenoiseIteration] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.history)


class IterativeNoiseReducer:
    """The iterative noisy-positive reduction of section 3.3.2.

    ``oversample_pure`` replicates the weight of pure positives (the
    paper uses a factor of 3).  Iteration stops when the fraction of
    noisy positives whose keep/drop status changed falls below
    :data:`MIN_CHANGE`, or after ``max_iter`` rounds.
    """

    def __init__(
        self,
        max_iter: int,
        classifier_factory: ClassifierFactory = _default_factory,
        oversample_pure: int = 3,
    ) -> None:
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if oversample_pure < 1:
            raise ValueError("oversample_pure must be >= 1")
        self.classifier_factory = classifier_factory
        self.max_iter = max_iter
        self.oversample_pure = oversample_pure

    def fit(
        self,
        X_noisy_positive: sparse.spmatrix,
        X_negative: sparse.spmatrix,
        X_pure_positive: sparse.spmatrix | None = None,
    ) -> DenoiseResult:
        """Run the loop; the returned model is trained on the final sets."""
        Pn = sparse.csr_matrix(X_noisy_positive)
        N = sparse.csr_matrix(X_negative)
        Pp = (
            sparse.csr_matrix(X_pure_positive)
            if X_pure_positive is not None and X_pure_positive.shape[0] > 0
            else None
        )
        if Pn.shape[0] == 0:
            raise ValueError("noisy positive set is empty")

        kept = np.ones(Pn.shape[0], dtype=bool)
        history: list[DenoiseIteration] = []
        model = None
        for iteration in range(1, self.max_iter + 1):
            model = self._train(Pn[kept], N, Pp)
            predictions = np.asarray(model.predict(Pn)).astype(bool)
            # Never keep fewer than MIN_KEPT: degenerate collapse guard.
            if predictions.sum() < MIN_KEPT:
                scores = model.predict_proba(Pn)[:, 1]
                top = np.argsort(-scores)[:MIN_KEPT]
                predictions = np.zeros_like(predictions)
                predictions[top] = True
            changed = float((predictions != kept).mean())
            kept = predictions
            history.append(
                DenoiseIteration(
                    iteration=iteration,
                    kept_noisy=int(kept.sum()),
                    dropped_noisy=int((~kept).sum()),
                    changed_fraction=changed,
                )
            )
            if changed < MIN_CHANGE:
                break
        # Final model reflects the converged noisy-positive set.
        model = self._train(Pn[kept], N, Pp)
        return DenoiseResult(model=model, kept_mask=kept, history=history)

    def _train(
        self,
        Pn_kept: sparse.csr_matrix,
        N: sparse.csr_matrix,
        Pp: sparse.csr_matrix | None,
    ):
        blocks = [Pn_kept]
        weights = [np.ones(Pn_kept.shape[0])]
        if Pp is not None:
            blocks.append(Pp)
            weights.append(
                np.full(Pp.shape[0], float(self.oversample_pure))
            )
        n_positive_rows = sum(block.shape[0] for block in blocks)
        blocks.append(N)
        weights.append(np.ones(N.shape[0]))
        X = sparse.vstack(blocks)
        y = np.concatenate(
            [
                np.ones(n_positive_rows, dtype=np.int64),
                np.zeros(N.shape[0], dtype=np.int64),
            ]
        )
        sample_weight = np.concatenate(weights)
        model = self.classifier_factory()
        try:
            model.fit(X, y, sample_weight=sample_weight)
        except TypeError:
            # Classifier without weight support: replicate pure positives.
            model.fit(*_replicate(X, y, sample_weight))
        return model


def _replicate(
    X: sparse.csr_matrix, y: np.ndarray, sample_weight: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Materialize integer sample weights by row replication."""
    reps = np.maximum(np.round(sample_weight).astype(int), 1)
    rows = np.repeat(np.arange(X.shape[0]), reps)
    return X[rows], y[rows]

