"""The vectorized engine against a pure-Python reference BM25 (hypothesis).

The reference below is the specification: plain dicts over
``(doc_key, terms)``, one document at a time, adding each query term's
BM25 contribution in query order and then the phrase bonus.  The engine
must return exactly the same ``[(doc_key, score)]`` lists — same order,
bit-identical floats — including ties at the ``top_k`` boundary.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.engine import SearchEngine, parse_query

WORDS = ["acme", "deal", "new", "ceo", "growth", "the"]


def occurrences(terms: list[str], phrase) -> int:
    return sum(
        terms[i:i + len(phrase)] == list(phrase) for i in range(len(terms))
    )


def reference_search(docs: dict[str, list[str]], query: str, top_k: int):
    parsed = parse_query(query)
    n = len(docs)
    avg = (sum(map(len, docs.values())) / n if n else 0.0) or 1.0
    scores = {}
    for key, terms in docs.items():
        if not all(occurrences(terms, p) for p in parsed.phrases):
            continue
        score, hit = 0.0, False
        for term in parsed.all_terms:
            if tf := terms.count(term):
                df = sum(term in other for other in docs.values())
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                norm = 1 - 0.75 + 0.75 * len(terms) / avg
                score += idf * tf * (1.2 + 1) / (tf + 1.2 * norm)
                hit = True
        if hit:
            scores[key] = score + sum(
                2.0 * occurrences(terms, p) for p in parsed.phrases
            )
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:top_k]


texts = st.lists(st.sampled_from(WORDS), max_size=12)
corpora = st.dictionaries(
    st.sampled_from([f"d{i:02d}" for i in range(14)]), texts, max_size=14
)
query_parts = st.one_of(
    st.sampled_from(WORDS),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
        lambda words: '"' + " ".join(words) + '"'
    ),
)
queries = st.lists(query_parts, min_size=1, max_size=4).map(" ".join)


def engine_results(engine: SearchEngine, query: str, top_k: int):
    return [(r.doc_key, r.score) for r in engine.search(query, top_k)]


@settings(max_examples=300, deadline=None)
@given(corpora, queries, st.integers(1, 8))
def test_engine_equals_reference_bm25(docs, query, top_k):
    engine = SearchEngine()
    engine.add_documents((key, " ".join(terms), "") for key, terms in docs.items())
    assert engine_results(engine, query, top_k) == reference_search(
        docs, query, top_k
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([f"d{i}" for i in range(8)]), texts),
        max_size=16,
    ),
    st.integers(1, 4),
    queries,
    st.integers(1, 8),
)
def test_batched_replacing_writes_equal_reference(
    writes, n_batches, query, top_k
):
    """The merge path (replacements, repeated keys, any batching) ranks
    the final document set exactly like the reference."""
    engine = SearchEngine()
    size = -(-len(writes) // n_batches) or 1
    for start in range(0, len(writes), size):
        engine.add_documents(
            (key, " ".join(terms), "") for key, terms in writes[start:start + size]
        )
    final = dict(writes)
    assert engine_results(engine, query, top_k) == reference_search(
        final, query, top_k
    )


def test_ties_at_the_boundary_break_by_doc_key():
    engine = SearchEngine()
    engine.add_documents(
        (key, "acme deal", "") for key in ("d3", "d1", "d4", "d2")
    )
    engine.add_document("d0", "deal")
    assert [r.doc_key for r in engine.search("acme", top_k=2)] == [
        "d1", "d2"
    ]
