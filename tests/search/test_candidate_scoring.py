"""Phrase queries scored at their candidates against a dense masked scorer.

``SearchEngine._search`` scores a query with quoted phrases only at the
documents that hold every phrase, and a query without phrases over one
dense per-ordinal array.  The reference below scores every query the
dense way: a boolean candidate mask built phrase by phrase (and cut to
``within``), a per-ordinal bonus array, and every term's postings
masked to the candidates before they are accumulated.  The engine must
return exactly the same ``[(doc_key, score)]`` lists, floats compared
with ``==``, for 0-2 phrases plus loose terms, with and without a
``within`` mask.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.engine import SearchEngine, parse_query
from repro.search.scoring import PHRASE_BOOST, bm25

WORDS = ["acme", "deal", "new", "ceo", "growth", "the", "zork"]


def dense_reference(engine: SearchEngine, query: str, top_k: int, within):
    """Every document masked and scored, the bonus added at the end."""
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


texts = st.lists(st.sampled_from(WORDS[:-1]), max_size=14)
corpora = st.dictionaries(
    st.sampled_from([f"d{i:02d}" for i in range(16)]), texts, max_size=16
)
phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
    lambda words: '"' + " ".join(words) + '"'
)
queries = (
    st.tuples(
        st.lists(phrases, max_size=2),
        st.lists(st.sampled_from(WORDS), max_size=3),
    )
    .flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    .map(" ".join)
)


@settings(max_examples=400, deadline=None)
@given(corpora, queries, st.integers(1, 8), st.data())
def test_search_equals_dense_masked_reference(docs, query, top_k, data):
    engine = SearchEngine()
    engine.add_documents(
        (key, " ".join(terms), "") for key, terms in docs.items()
    )
    n_docs = engine.index.n_docs
    within = data.draw(
        st.none() | st.lists(st.booleans(), min_size=n_docs, max_size=n_docs)
    )
    if within is not None:
        within = np.array(within, dtype=bool)
    got = [
        (hit.doc_key, hit.score)
        for hit in engine.search(query, top_k=top_k, within=within)
    ]
    assert got == dense_reference(engine, query, top_k, within)
