"""Noise-tolerant training tests: ETAP's iterative denoiser."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.ml.noise import IterativeNoiseReducer


def noisy_pu_setup(seed=13, n_true=60, n_noise=25, n_neg=200):
    """Noisy positives = true positives + background contamination."""
    rng = np.random.default_rng(seed)

    def topic(kind, n):
        probs = (
            [0.30, 0.30, 0.20, 0.07, 0.07, 0.06]
            if kind == "pos"
            else [0.06, 0.07, 0.07, 0.20, 0.30, 0.30]
        )
        return rng.multinomial(25, probs, size=n).astype(float)

    X_true = topic("pos", n_true)
    X_contamination = topic("neg", n_noise)
    X_noisy = sparse.csr_matrix(np.vstack([X_true, X_contamination]))
    X_negative = sparse.csr_matrix(topic("neg", n_neg))
    truth_mask = np.array([True] * n_true + [False] * n_noise)
    return X_noisy, X_negative, truth_mask


class TestIterativeReducer:
    def test_drops_contamination(self):
        X_noisy, X_negative, truth = noisy_pu_setup()
        result = IterativeNoiseReducer(max_iter=4).fit(X_noisy, X_negative)
        dropped = ~result.kept_mask
        # Most of what was dropped is genuine contamination.
        assert dropped.sum() > 0
        precision_of_drop = (~truth)[dropped].mean()
        assert precision_of_drop >= 0.8

    def test_keeps_true_positives(self):
        X_noisy, X_negative, truth = noisy_pu_setup()
        result = IterativeNoiseReducer(max_iter=4).fit(X_noisy, X_negative)
        assert result.kept_mask[truth].mean() >= 0.9

    def test_history_recorded(self):
        X_noisy, X_negative, _ = noisy_pu_setup()
        result = IterativeNoiseReducer(max_iter=3).fit(
            X_noisy, X_negative
        )
        assert 1 <= result.n_iterations <= 3
        for entry in result.history:
            assert entry.kept_noisy + entry.dropped_noisy == (
                X_noisy.shape[0]
            )

    def test_converges_early_when_stable(self):
        X_noisy, X_negative, _ = noisy_pu_setup()
        result = IterativeNoiseReducer(max_iter=10).fit(X_noisy, X_negative)
        assert result.n_iterations < 10

    def test_final_model_is_usable(self):
        X_noisy, X_negative, truth = noisy_pu_setup()
        result = IterativeNoiseReducer(max_iter=10).fit(X_noisy, X_negative)
        predictions = result.model.predict(X_noisy)
        assert (predictions[truth] == 1).mean() >= 0.9

    def test_pure_positive_oversampling_used(self):
        X_noisy, X_negative, _ = noisy_pu_setup()
        X_pure = X_noisy[:5]
        result = IterativeNoiseReducer(max_iter=10, oversample_pure=3).fit(
            X_noisy, X_negative, X_pure
        )
        assert result.model is not None

    def test_min_kept_floor(self):
        # All-noise positives: the guard keeps at least MIN_KEPT rows.
        rng = np.random.default_rng(0)
        X_noisy = sparse.csr_matrix(
            rng.multinomial(20, [1 / 6] * 6, size=12).astype(float)
        )
        X_negative = sparse.csr_matrix(
            rng.multinomial(20, [1 / 6] * 6, size=200).astype(float)
        )
        result = IterativeNoiseReducer(max_iter=10).fit(
            X_noisy, X_negative
        )
        assert result.kept_mask.sum() >= 5

    def test_empty_noisy_set_rejected(self):
        X = sparse.csr_matrix((0, 4))
        N = sparse.csr_matrix(np.eye(4))
        with pytest.raises(ValueError):
            IterativeNoiseReducer(max_iter=10).fit(X, N)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IterativeNoiseReducer(max_iter=0)
        with pytest.raises(ValueError):
            IterativeNoiseReducer(max_iter=10, oversample_pure=0)

