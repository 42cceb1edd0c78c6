"""BM25 behaviour, on the scoring function and through the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.scoring import bm25


@pytest.fixture
def index():
    idx = InvertedIndex()
    idx.add_document("short", "acme deal")
    idx.add_document("long", "acme " + "filler " * 50 + "deal")
    idx.add_document("rare", "unique zebra phrase here")
    idx.add_document("common1", "deal deal deal")
    idx.add_document("common2", "deal talk")
    return idx


def score(index, term, doc_key, tf):
    """BM25 of ``term`` occurring ``tf`` times in ``doc_key``."""
    return bm25(
        np.array([tf]),
        np.array([index.doc_length(doc_key)]),
        index.document_frequency(term),
        index.n_docs,
        index.average_doc_length,
    )[0]


def ranked(index, query):
    return {
        result.doc_key: result.score
        for result in SearchEngine(index=index).search(query, top_k=10)
    }


class TestBm25:
    def test_zero_for_unknown_term(self, index):
        assert ranked(index, "acme zork") == ranked(index, "acme")

    def test_zero_for_zero_tf(self, index):
        # common1 lacks "acme": its score is its "deal" score alone.
        assert ranked(index, "acme deal")["common1"] == ranked(
            index, "deal"
        )["common1"]

    def test_rare_term_outscores_common(self, index):
        rare = score(index, "zebra", "rare", 1)
        common = score(index, "deal", "common2", 1)
        assert rare > common

    def test_length_normalization(self, index):
        short = score(index, "acme", "short", 1)
        long = score(index, "acme", "long", 1)
        assert short > long

    def test_tf_saturation(self, index):
        one = score(index, "deal", "common1", 1)
        three = score(index, "deal", "common1", 3)
        assert three > one
        assert three < 3 * one  # saturating, not linear
