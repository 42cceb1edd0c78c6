"""Batched CSR construction for abstracted-feature matrices.

The per-document transform path (one ``Counter`` per row, three Python
lists of boxed floats) was the vectorization hot spot of training: every
denoise iteration re-transforms thousands of snippets.  This module
builds the whole matrix in one pass instead:

* one flat column-id array for all documents (a single Python loop over
  tokens — the dict lookups are unavoidable, everything after is numpy);
* row ids via :func:`numpy.repeat` over per-document occurrence counts;
* duplicate ``(row, col)`` cells summed by scipy's C-level COO→CSR
  conversion, replacing the per-row ``Counter``.

The result is numerically identical to the per-document path: same
shape, same counts, same canonical CSR layout.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy import sparse


def batch_transform(
    documents: Sequence[Sequence[str]],
    vocabulary: dict[str, int],
    *,
    binary: bool = False,
    expand: Callable[[Sequence[str]], Sequence[str]] | None = None,
) -> sparse.csr_matrix:
    """Vectorize token lists against a fixed vocabulary in one batch.

    ``expand`` optionally maps each document's tokens to the feature
    stream to count (e.g. the vectorizer's n-gram expansion); unknown
    features are skipped (open-vocabulary behaviour).  With ``binary``
    every present feature counts 1.0 regardless of multiplicity.
    """
    n_features = len(vocabulary)
    cols: list[int] = []
    lengths = np.empty(len(documents), dtype=np.intp)
    lookup = vocabulary.get
    for i, tokens in enumerate(documents):
        if expand is not None:
            tokens = expand(tokens)
        before = len(cols)
        cols.extend(
            col
            for col in map(lookup, tokens)
            if col is not None
        )
        lengths[i] = len(cols) - before
    rows = np.repeat(np.arange(len(documents), dtype=np.intp), lengths)
    data = np.ones(len(cols), dtype=np.float64)
    # COO -> CSR sums duplicate (row, col) cells in C: this is the
    # batched replacement for one Counter per document.
    matrix = sparse.csr_matrix(
        (data, (rows, np.asarray(cols, dtype=np.intp))),
        shape=(len(documents), n_features),
        dtype=np.float64,
    )
    if binary:
        matrix.data.fill(1.0)
    return matrix
