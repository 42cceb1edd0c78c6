"""Shared helpers for tests that build or compare search indexes."""

from __future__ import annotations

from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex


def by_doc(index: InvertedIndex, term: str) -> dict[str, list[int]]:
    """A term's postings as ``{doc_key: [positions]}``, in doc order."""
    docs, positions = index.postings(term)
    keys = index.doc_keys()
    postings: dict[str, list[int]] = {}
    for doc, position in zip(docs.tolist(), positions.tolist()):
        postings.setdefault(keys[doc], []).append(position)
    return postings


def postings_snapshot(index: InvertedIndex, terms) -> dict:
    """``{term: by_doc(index, term)}`` over ``terms``."""
    return {term: by_doc(index, term) for term in terms}


def build_engine_from_pairs(pairs: list[tuple[str, str]]) -> SearchEngine:
    """An engine over ``(doc_key, text)`` pairs, with empty titles."""
    engine = SearchEngine()
    engine.add_documents((doc_key, text, "") for doc_key, text in pairs)
    return engine
