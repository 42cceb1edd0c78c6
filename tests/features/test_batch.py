"""Equivalence tests: batched CSR construction vs the per-document path.

``batch_transform`` replaced a per-row ``Counter`` loop on the training
hot path; these tests pin the claim that it is *numerically identical*
to the straightforward implementation — same shape, same counts, same
cells — across random documents, binary mode, and n-gram expansion.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Callable, Sequence

import numpy as np
from hypothesis import given, strategies as st
from scipy import sparse

from repro.features.batch import batch_transform
from repro.features.vectorizer import Vectorizer, VectorizerConfig

TOKENS = ["acquire", "ceo", "revenue", "__COMPANY__", "plant", "oov"]
VOCABULARY = {
    token: index for index, token in enumerate(sorted(TOKENS[:-1]))
}

documents_strategy = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=12), max_size=10
)


def reference_transform(
    documents: Sequence[Sequence[str]],
    vocabulary: dict[str, int],
    *,
    binary: bool = False,
    expand: Callable[[Sequence[str]], Sequence[str]] | None = None,
) -> sparse.csr_matrix:
    """The pre-batching implementation: one Counter per document."""
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for row, tokens in enumerate(documents):
        if expand is not None:
            tokens = expand(tokens)
        counts = Counter(
            token for token in tokens if token in vocabulary
        )
        for token, count in counts.items():
            rows.append(row)
            cols.append(vocabulary[token])
            data.append(1.0 if binary else float(count))
    return sparse.csr_matrix(
        (data, (rows, cols)),
        shape=(len(documents), len(vocabulary)),
        dtype=np.float64,
    )


@given(documents_strategy, st.booleans())
def test_batch_transform_matches_per_document_path(documents, binary):
    batched = batch_transform(documents, VOCABULARY, binary=binary)
    reference = reference_transform(documents, VOCABULARY, binary=binary)
    assert batched.shape == reference.shape
    assert batched.dtype == reference.dtype
    np.testing.assert_array_equal(
        batched.toarray(), reference.toarray()
    )


@given(documents_strategy, st.booleans())
def test_vectorizer_transform_matches_per_document_path(documents, binary):
    config = VectorizerConfig(binary=binary, ngram_range=(1, 2))
    vectorizer = Vectorizer(config).fit(documents)
    batched = vectorizer.transform(documents)
    reference = reference_transform(
        documents,
        vectorizer.vocabulary,
        binary=binary,
        expand=vectorizer._expand,
    )
    np.testing.assert_array_equal(
        batched.toarray(), reference.toarray()
    )


def test_empty_inputs():
    no_docs = batch_transform([], VOCABULARY)
    assert no_docs.shape == (0, len(VOCABULARY))
    empty_doc = batch_transform([[]], VOCABULARY)
    assert empty_doc.shape == (1, len(VOCABULARY))
    assert empty_doc.nnz == 0
    no_vocab = batch_transform([["acquire"]], {})
    assert no_vocab.shape == (1, 0)


def test_unknown_tokens_are_skipped():
    matrix = batch_transform([["oov", "acquire", "oov"]], VOCABULARY)
    assert matrix.nnz == 1
    assert matrix[0, VOCABULARY["acquire"]] == 1.0


def test_fitted_vocabulary_is_interned():
    vectorizer = Vectorizer().fit([["acquire", "ceo"], ["ceo"]])
    assert all(
        name is sys.intern(name) for name in vectorizer.vocabulary
    )
