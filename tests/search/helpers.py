"""Shared helpers for tests that build or compare search indexes."""

from __future__ import annotations

import numpy as np

from repro.search.engine import SearchEngine, parse_query
from repro.search.index import InvertedIndex
from repro.search.scoring import PHRASE_BOOST, bm25


def by_doc(index: InvertedIndex, term: str) -> dict[str, list[int]]:
    """A term's postings as ``{doc_key: [positions]}``, in doc order."""
    docs, positions = index.postings(term)
    keys = index.doc_keys()
    postings: dict[str, list[int]] = {}
    for doc, position in zip(docs.tolist(), positions.tolist()):
        postings.setdefault(keys[doc], []).append(position)
    return postings


def index_of(documents) -> InvertedIndex:
    """A fresh index over ``(doc_key, text, title)`` triples."""
    index = InvertedIndex()
    index.add_documents(documents)
    return index


def postings_snapshot(index: InvertedIndex, terms) -> dict:
    """``{term: by_doc(index, term)}`` over ``terms``."""
    return {term: by_doc(index, term) for term in terms}


def build_engine_from_pairs(pairs: list[tuple[str, str]]) -> SearchEngine:
    """An engine over ``(doc_key, text)`` pairs, with empty titles."""
    engine = SearchEngine()
    engine.add_documents((doc_key, text, "") for doc_key, text in pairs)
    return engine


def dense_reference(engine: SearchEngine, query: str, top_k: int, within):
    """``engine.search`` as ``[(doc_key, score)]``, scored the dense way.

    Every document is masked and scored: a boolean candidate mask built
    phrase by phrase from ``phrase_matches`` (and cut to ``within``), a
    per-ordinal bonus array added at the end, and every term's
    doc-level postings masked to the candidates before they are
    accumulated.  It reads the index arrays only, never the engine's
    phrase memo, so it is an independent oracle for the memoized path.
    """
    parsed = parse_query(query)
    index = engine.index
    n_docs = index.n_docs
    if top_k <= 0 or not parsed.all_terms:
        return []
    candidates = within
    bonus = np.zeros(n_docs)
    for phrase in parsed.phrases:
        docs, counts = index.phrase_matches(phrase)
        matched = np.zeros(n_docs, dtype=bool)
        matched[docs] = True
        if candidates is not None:
            matched &= candidates
        candidates = matched
        bonus[docs] += PHRASE_BOOST * counts
    scores = np.zeros(n_docs)
    scored = np.zeros(n_docs, dtype=bool)
    avg_length = index.average_doc_length or 1.0
    for term in parsed.all_terms:
        docs, tf = index.doc_postings(term)
        df = len(docs)
        if candidates is not None:
            keep = candidates[docs]
            docs, tf = docs[keep], tf[keep]
        scores[docs] += bm25(tf, index.lengths[docs], df, n_docs, avg_length)
        scored[docs] = True
    hits = np.flatnonzero(scored)
    final = scores[hits] + bonus[hits]
    ranked = sorted(
        zip(hits.tolist(), final.tolist()),
        key=lambda item: (-item[1], index.keys[item[0]]),
    )
    return [(index.keys[doc], score) for doc, score in ranked[:top_k]]
