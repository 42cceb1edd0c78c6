"""Bag-of-words vectorizer over snippets' sentence tuples.

A document is a sequence of sentences (a snippet's ``sentences``).  Each
distinct sentence of a batch is featurized once, by the vectorizer's
``featurize`` hook, into its abstracted feature tokens (produced by
:func:`repro.features.abstraction.abstract_tokens`).  With unigram
features a snippet's count row is the sum of its sentences' rows, so a
batch's matrix is one sparse product::

    X = I @ S

``I`` is the batch's snippet x sentence incidence matrix and ``S`` the
sentence x feature count matrix of the batch's distinct sentences only,
so a batch of k snippets costs O(k) whatever was transformed before.
N-grams that straddle two sentences are added explicitly (see
:meth:`Vectorizer._joints`).  The vocabulary is fixed at
:meth:`Vectorizer.fit` time; unseen tokens at transform time are
ignored, the standard open-vocabulary behaviour.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

#: ``featurize(sentences) -> [(tokens, closes), ...]``, one entry per
#: sentence.  ``closes`` says whether the sentence ends where annotation
#: cannot see past it (a ``.``, ``!`` or ``?`` token).  A document whose
#: sentences all close, except perhaps the last, has the concatenation
#: of its sentences' tokens as its tokens; any other document is
#: featurized as the ``" "`` join of its sentences.
Featurizer = Callable[
    [Sequence[str]], Sequence[tuple[Sequence[str], bool]]
]


def token_units(units: Sequence[str]) -> list[tuple[tuple[str], bool]]:
    """The default featurizer: each unit is one feature token.

    A plain token list is then a valid document, vectorized exactly as
    the bag of its tokens.
    """
    return [((unit,), True) for unit in units]


@dataclass(frozen=True)
class VectorizerConfig:
    """Vectorizer knobs.

    min_df: drop features seen in fewer documents.
    binary: 0/1 presence instead of counts.
    max_features: keep only the most document-frequent features.
    ngram_range: (lo, hi) word n-gram sizes; (1, 2) adds bigrams such
        as ``new_ceo`` alongside the unigrams.
    """

    min_df: int = 1
    binary: bool = False
    max_features: int | None = None
    ngram_range: tuple[int, int] = (1, 1)


class Vectorizer:
    """Fit a vocabulary, then map sentence tuples to CSR matrices."""

    def __init__(
        self,
        config: VectorizerConfig | None = None,
        featurize: Featurizer = token_units,
    ) -> None:
        self.config = config or VectorizerConfig()
        self.featurize = featurize
        self.vocabulary: dict[str, int] = {}
        self._fitted = False
        self._fitted_counts: tuple | None = None

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)

    def _expand(self, tokens: Sequence[str]) -> list[str]:
        """Emit the configured n-grams for one token sequence."""
        lo, hi = self.config.ngram_range
        expanded: list[str] = []
        for n in range(lo, hi + 1):
            if n == 1:
                expanded.extend(tokens)
                continue
            for start in range(len(tokens) - n + 1):
                expanded.append("_".join(tokens[start : start + n]))
        return expanded

    def fit(self, documents: Sequence[Sequence[str]]) -> "Vectorizer":
        """Build the vocabulary from training documents.

        A feature's document frequency is its column's nonzero count in
        the documents' count matrix.
        """
        if self.config.min_df < 1:
            raise ValueError("min_df must be >= 1")
        lo, hi = self.config.ngram_range
        if not 1 <= lo <= hi:
            raise ValueError("ngram_range must satisfy 1 <= lo <= hi")
        counts, columns = self._counts(documents, None)
        document_frequency = np.bincount(
            counts.indices, minlength=len(columns)
        )
        kept = [
            (feature, int(df))
            for feature, df in zip(columns, document_frequency.tolist())
            if df >= self.config.min_df
        ]
        # Highest-df first makes truncation by max_features meaningful;
        # alphabetical tie-break keeps the mapping deterministic.
        kept.sort(key=lambda item: (-item[1], item[0]))
        if self.config.max_features is not None:
            kept = kept[: self.config.max_features]
        # Feature names are interned: every abstracted token list holds
        # the same handful of category strings thousands of times, so
        # vocabulary probes become pointer comparisons and the strings
        # are stored once process-wide.
        self.vocabulary = {
            sys.intern(feature): index
            for index, (feature, _) in enumerate(sorted(kept))
        }
        self._fitted = True
        # A transform of the very documents just fitted (fit_transform)
        # selects its columns from this product instead of rebuilding it.
        self._fitted_counts = (
            _snapshot(documents),
            counts,
            [columns[feature] for feature in self.vocabulary],
        )
        return self

    def transform(
        self, documents: Sequence[Sequence[str]]
    ) -> sparse.csr_matrix:
        """Map sentence tuples to a (n_docs, n_features) sparse matrix."""
        if not self._fitted:
            raise RuntimeError("vectorizer must be fit before transform")
        fitted, self._fitted_counts = self._fitted_counts, None
        if fitted is not None and fitted[0] == _snapshot(documents):
            matrix = fitted[1][:, fitted[2]]
            matrix.sort_indices()
        else:
            matrix, _ = self._counts(documents, self.vocabulary)
        if self.config.binary:
            matrix.data.fill(1.0)
        return matrix

    def fit_transform(
        self, documents: Sequence[Sequence[str]]
    ) -> sparse.csr_matrix:
        return self.fit(documents).transform(documents)

    def tokens(self, document: Sequence[str]) -> list[str]:
        """The feature tokens a document's row counts (before n-grams)."""
        tokens, positions, _ = self._sentences([document])
        return [token for position in positions for token in tokens[position]]

    def feature_names(self) -> list[str]:
        """Feature names ordered by column index."""
        names = [""] * self.n_features
        for feature, index in self.vocabulary.items():
            names[index] = feature
        return names

    # -- the sentence-row product ----------------------------------------------

    def _counts(
        self,
        documents: Sequence[Sequence[str]],
        vocabulary: dict[str, int] | None,
    ) -> tuple[sparse.csr_matrix, dict[str, int]]:
        """Feature counts of ``documents`` in canonical CSR layout.

        ``vocabulary`` maps features to columns; ``None`` gives every
        feature of the batch a column (the fit's provisional columns).
        Returns the matrix and the column map it used.
        """
        tokens, positions, doc_ptr = self._sentences(documents)
        grams = (
            tokens
            if self.config.ngram_range == (1, 1)
            else [self._expand(sentence) for sentence in tokens]
        )
        joints = self._joints(tokens, positions, doc_ptr)
        if vocabulary is None:
            vocabulary = {
                feature: column
                for column, feature in enumerate(
                    dict.fromkeys(
                        chain(chain.from_iterable(grams), *joints)
                    )
                )
            }
        n_docs = len(doc_ptr) - 1
        incidence = sparse.csr_matrix(
            (np.ones(len(positions)), positions, doc_ptr),
            shape=(n_docs, len(tokens)),
        )
        incidence.sum_duplicates()
        matrix = incidence @ _count_rows(grams, vocabulary)
        if joints:
            matrix = matrix + _count_rows(joints, vocabulary)
        matrix.sort_indices()
        return matrix, vocabulary

    def _sentences(
        self, documents: Sequence[Sequence[str]]
    ) -> tuple[list[Sequence[str]], np.ndarray, np.ndarray]:
        """Featurize the batch's distinct sentences once each.

        Returns each distinct sentence's tokens, the flat sentence
        position of every (document, sentence) occurrence, and the
        per-document pointer into it.  A document with a sentence that
        does not close before its last is replaced by its ``" "`` join.
        """
        sentences = list(dict.fromkeys(chain.from_iterable(documents)))
        index = dict(zip(sentences, count()))
        lengths = np.fromiter(
            map(len, documents), dtype=np.int64, count=len(documents)
        )
        doc_ptr = np.zeros(len(documents) + 1, dtype=np.int64)
        np.cumsum(lengths, out=doc_ptr[1:])
        positions = np.fromiter(
            map(index.__getitem__, chain.from_iterable(documents)),
            dtype=np.int64,
            count=int(doc_ptr[-1]),
        )
        entries = self.featurize(sentences)
        closes = np.fromiter(
            (closed for _, closed in entries), dtype=bool, count=len(entries)
        )
        inner = np.ones(len(positions), dtype=bool)
        inner[doc_ptr[1:][lengths > 0] - 1] = False
        open_inside = inner & ~closes[positions]
        if open_inside.any():
            owners = np.repeat(np.arange(len(documents)), lengths)
            broken = set(owners[open_inside].tolist())
            return self._sentences([
                (" ".join(document),) if i in broken else document
                for i, document in enumerate(documents)
            ])
        return [tokens for tokens, _ in entries], positions, doc_ptr

    def _joints(
        self,
        tokens: list[Sequence[str]],
        positions: np.ndarray,
        doc_ptr: np.ndarray,
    ) -> list[list[str]]:
        """Per document, the n-grams that straddle a sentence joint.

        An n-gram of the concatenated token stream either lies inside one
        sentence (counted by that sentence's row) or ends in a sentence
        whose first tokens complete it after the stream's last tokens
        before that sentence.  Featureless sentences add no tokens, so a
        joint skips them.  Empty for unigram configs.
        """
        lo, hi = self.config.ngram_range
        if hi < 2:
            return []
        sizes = range(max(lo, 2), hi + 1)
        joints: list[list[str]] = []
        bounds = doc_ptr.tolist()
        flat = positions.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            grams: list[str] = []
            tail: tuple[str, ...] = ()
            for position in flat[start:stop]:
                sentence = tuple(tokens[position])
                if not sentence:
                    continue
                for n in sizes:
                    for k in range(
                        max(1, n - len(sentence)), min(n - 1, len(tail)) + 1
                    ):
                        grams.append("_".join(tail[-k:] + sentence[: n - k]))
                tail = (tail + sentence)[-(hi - 1):]
            joints.append(grams)
        return joints


def _snapshot(documents: Sequence[Sequence[str]]) -> tuple[tuple, ...]:
    """The documents as nested tuples (a no-op copy for tuples)."""
    return tuple(map(tuple, documents))


def _count_rows(
    rows: Sequence[Sequence[str]], vocabulary: dict[str, int]
) -> sparse.csr_matrix:
    """Count each row's features against ``vocabulary`` in one batch.

    The features of all rows are looked up in one C-level pass (unknown
    features map to -1 and are dropped); duplicate ``(row, col)`` cells
    are summed by scipy's COO -> CSR conversion.
    """
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    cols = np.fromiter(
        map(vocabulary.get, chain.from_iterable(rows), repeat(-1)),
        dtype=np.intp,
        count=int(lengths.sum()),
    )
    row_ids = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    known = cols >= 0
    return sparse.csr_matrix(
        (
            np.ones(int(known.sum()), dtype=np.float64),
            (row_ids[known], cols[known]),
        ),
        shape=(len(rows), len(vocabulary)),
        dtype=np.float64,
    )
