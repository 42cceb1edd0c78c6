"""The token-path feature matrices, frozen as the reference.

Before snippet rows were composed from sentence rows, a snippet's
features were ``abstract_tokens`` of its whole annotation, and the
vectorizer counted each snippet's token list, expanded to n-grams over
the whole list.  :func:`reference_matrix` keeps that implementation so
the sentence-row product can be compared with it cell for cell.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.features.abstraction import AbstractionPolicy, abstract_tokens
from repro.features.vectorizer import VectorizerConfig
from repro.text.engine import AnnotationEngine


def snippet_tokens(
    engine: AnnotationEngine,
    sentences: tuple[str, ...],
    policy: AbstractionPolicy,
) -> list[str]:
    """A snippet's feature tokens, abstracted from its whole annotation."""
    return abstract_tokens(
        engine.annotate(sentences), policy, stemmer=engine.stemmer
    )


def expand(tokens: Sequence[str], config: VectorizerConfig) -> list[str]:
    lo, hi = config.ngram_range
    expanded: list[str] = []
    for n in range(lo, hi + 1):
        if n == 1:
            expanded.extend(tokens)
            continue
        for start in range(len(tokens) - n + 1):
            expanded.append("_".join(tokens[start : start + n]))
    return expanded


def reference_vocabulary(
    documents: Sequence[Sequence[str]], config: VectorizerConfig
) -> dict[str, int]:
    """Fit over token lists: df over each document's feature set."""
    document_frequency: Counter = Counter()
    for tokens in documents:
        document_frequency.update(set(expand(tokens, config)))
    kept = [
        (feature, df)
        for feature, df in document_frequency.items()
        if df >= config.min_df
    ]
    kept.sort(key=lambda item: (-item[1], item[0]))
    if config.max_features is not None:
        kept = kept[: config.max_features]
    return {feature: i for i, (feature, _) in enumerate(sorted(kept))}


def reference_matrix(
    documents: Sequence[Sequence[str]],
    vocabulary: dict[str, int],
    config: VectorizerConfig,
) -> sparse.csr_matrix:
    """Transform token lists: one COO triple for the batch, summed."""
    cols: list[int] = []
    lengths = np.empty(len(documents), dtype=np.intp)
    for i, tokens in enumerate(documents):
        before = len(cols)
        cols.extend(
            vocabulary[feature]
            for feature in expand(tokens, config)
            if feature in vocabulary
        )
        lengths[i] = len(cols) - before
    rows = np.repeat(np.arange(len(documents), dtype=np.intp), lengths)
    matrix = sparse.csr_matrix(
        (
            np.ones(len(cols), dtype=np.float64),
            (rows, np.asarray(cols, dtype=np.intp)),
        ),
        shape=(len(documents), len(vocabulary)),
        dtype=np.float64,
    )
    if config.binary:
        matrix.data.fill(1.0)
    return matrix


def assert_same_csr(actual: sparse.csr_matrix, expected: sparse.csr_matrix):
    """``==`` on shape and on the CSR data, indices and indptr arrays."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(actual.data, expected.data)
