"""Okapi BM25, the search engine's ranking function.

ETAP's smart-query step only needs "a large number of highly ranked
documents, most of them relevant" (section 3.3.1); BM25 over the
synthetic corpus provides exactly that.
"""

from __future__ import annotations

import math

import numpy as np

#: The conventional BM25 parameters.
K1 = 1.2
B = 0.75
#: Score added per occurrence of a quoted phrase in a matching document.
PHRASE_BOOST = 2.0


def bm25(
    tf: "np.ndarray",
    lengths: "np.ndarray",
    df: int,
    n_docs: int,
    avg_length: float,
) -> "np.ndarray":
    """One term's BM25 contribution to each document that holds it.

    ``tf`` and ``lengths`` are the term's frequency in, and the length
    of, each of those documents; ``df`` > 0 is the term's document
    frequency among ``n_docs`` documents of mean length ``avg_length``.
    """
    idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
    norm = 1 - B + B * lengths / avg_length
    return idf * tf * (K1 + 1) / (tf + K1 * norm)
