"""Input checks shared by the from-scratch classifiers.

All classifiers consume a ``scipy.sparse`` document-term matrix and a
numpy integer label vector (0 = negative/background, 1 = positive/
trigger), mirroring the two-class formulation of section 3.3, and
offer ``fit`` / ``predict`` / ``predict_proba`` over it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def check_fit_inputs(
    X: sparse.spmatrix, y: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Validate and canonicalize training inputs."""
    X = sparse.csr_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
        )
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty matrix")
    unknown = set(np.unique(y)) - {0, 1}
    if unknown:
        raise ValueError(f"labels must be 0/1; got extras {sorted(unknown)}")
    return X, y


def check_is_fitted(flag: bool, name: str) -> None:
    if not flag:
        raise RuntimeError(f"{name} must be fit before prediction")
