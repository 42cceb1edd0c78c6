"""Phrase queries scored at their candidates against a dense masked scorer.

``SearchEngine._search`` scores a query with quoted phrases only at the
documents that hold every phrase, and a query without phrases over one
dense per-ordinal array.  Each query's phrase clause (candidates, phrase
bonus, the phrase terms' BM25 sum) and each of its loose terms' BM25
contributions are evaluated once per index generation and kept in the
index's phrase memo.  The reference,
:func:`tests.search.helpers.dense_reference`, scores every query the
dense way from the index arrays and never reads the memo.  The engine
must return exactly the same ``[(doc_key, score)]`` lists, floats
compared with ``==``, for 0-2 phrases plus loose terms, with and without
a ``within`` mask, on a cold and a warm memo, across writes and clones.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.engine import SearchEngine, parse_query
from tests.search.helpers import dense_reference

WORDS = ["acme", "deal", "new", "ceo", "growth", "the", "zork"]

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


#: Queries with at least one phrase and one loose term.
loose_queries = (
    st.tuples(
        st.lists(phrases, min_size=1, max_size=2),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
    )
    .flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    .map(" ".join)
)


def build(docs: dict[str, list[str]]) -> SearchEngine:
    engine = SearchEngine()
    engine.add_documents(
        (key, " ".join(terms), "") for key, terms in docs.items()
    )
    return engine


def draw_within(data, engine: SearchEngine):
    n_docs = engine.index.n_docs
    within = data.draw(
        st.none() | st.lists(st.booleans(), min_size=n_docs, max_size=n_docs)
    )
    return None if within is None else np.array(within, dtype=bool)


def answer(engine: SearchEngine, query: str, top_k: int, within=None):
    return [
        (hit.doc_key, hit.score)
        for hit in engine.search(query, top_k=top_k, within=within)
    ]


def assert_matches_reference(engine, query, top_k, within=None):
    assert answer(engine, query, top_k, within) == dense_reference(
        engine, query, top_k, within
    )


@settings(max_examples=400, deadline=None)
@given(corpora, queries, st.integers(1, 8), st.data())
def test_search_equals_dense_masked_reference(docs, query, top_k, data):
    engine = build(docs)
    assert_matches_reference(engine, query, top_k, draw_within(data, engine))


@settings(max_examples=400, deadline=None)
@given(corpora, queries, st.integers(1, 8), st.data())
def test_warm_memo_serves_another_mask(docs, query, top_k, data):
    # The first search fills the memo under one mask; the second reads
    # the same entry under an independently drawn one.
    engine = build(docs)
    assert_matches_reference(engine, query, top_k, draw_within(data, engine))
    phrases = parse_query(query).phrases
    if phrases and engine.index.run_doc.size:
        assert phrases in engine.index.phrase_memo
    assert_matches_reference(engine, query, top_k, draw_within(data, engine))


@settings(max_examples=300, deadline=None)
@given(
    corpora,
    queries,
    st.integers(1, 8),
    st.dictionaries(
        st.sampled_from(["d00", "d03", "d07", "n00", "n01"]),
        st.lists(st.sampled_from(WORDS + ["fresh"]), max_size=14),
        min_size=1,
        max_size=4,
    ),
)
def test_write_replaces_the_memo(docs, query, top_k, batch):
    # The batch may replace indexed keys (d..) and add documents (n..)
    # and the term "fresh", which no earlier generation holds.
    engine = build(docs)
    assert_matches_reference(engine, query, top_k)
    engine.add_documents(
        (key, " ".join(terms), "") for key, terms in batch.items()
    )
    assert_matches_reference(engine, query, top_k)
    assert_matches_reference(engine, f'"fresh" {query}', top_k)


@settings(max_examples=300, deadline=None)
@given(
    corpora,
    queries,
    st.integers(1, 8),
    st.dictionaries(
        st.sampled_from(["d01", "d05", "n00"]),
        st.lists(st.sampled_from(WORDS), max_size=14),
        min_size=1,
        max_size=3,
    ),
)
def test_clone_and_source_keep_their_own_memo(docs, query, top_k, batch):
    original = build(docs)
    assert_matches_reference(original, query, top_k)
    clone = original.clone()
    clone.add_documents(
        (key, " ".join(terms), "") for key, terms in batch.items()
    )
    assert_matches_reference(clone, query, top_k)
    assert_matches_reference(original, query, top_k)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(texts, min_size=1, max_size=3),
    st.lists(st.lists(phrases, min_size=1, max_size=2), max_size=40),
)
def test_memo_stays_within_the_doc_level_postings(docs, phrase_sets):
    engine = build({f"d{i}": terms for i, terms in enumerate(docs)})
    index = engine.index
    for phrase_set in phrase_sets:
        query = " ".join(phrase_set)
        assert_matches_reference(engine, query, 5)
        memo = index.phrase_memo
        cells = sum(max(1, len(hits)) for hits, _, _ in memo.values())
        assert memo.cells == cells <= len(index.run_doc)


def test_concurrent_misses_keep_the_memo_count_exact():
    # More threads than cores, switching often: a lost update of the
    # memo's cell count would leave it below the entries' sum.
    engine = build({
        f"d{i}": [WORDS[(i + j) % 6] for j in range(8)] for i in range(6)
    })
    sent = [f'"{a} {b}"' for a in WORDS for b in WORDS]
    sent += [f'"{a}" "{b}"' for a in WORDS for b in WORDS]
    expected = {
        query: dense_reference(engine, query, 5, None) for query in sent
    }
    errors = []

    def client(k: int) -> None:
        # Overlapping shares: some misses of one key run at once.
        for query in sent[k::2] + sent[k::3]:
            if answer(engine, query, 5) != expected[query]:
                errors.append(query)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    memo = engine.index.phrase_memo
    cells = sum(max(1, len(hits)) for hits, _, _ in memo.values())
    assert memo.cells == cells <= memo.budget == len(engine.index.run_doc)


def entry_size(key, entry) -> int:
    """A memo entry's size: a clause's candidates, a term's documents."""
    return len(entry[0]) if isinstance(key, tuple) else len(entry)


def assert_memo_count_exact(index) -> None:
    memo = index.phrase_memo
    cells = sum(max(1, entry_size(key, entry)) for key, entry in memo.items())
    assert memo.cells == cells <= memo.budget == len(index.run_doc)


def write_batch(engine, docs, query, data) -> None:
    """Replace an indexed key (if any) and add a document holding the
    query's phrases, one of its loose terms and the term "fresh"."""
    parsed = parse_query(query)
    held = [word for phrase in parsed.phrases for word in phrase]
    batch = {"n00": held + [data.draw(st.sampled_from(parsed.terms)), "fresh"]}
    if docs:
        batch[data.draw(st.sampled_from(sorted(docs)))] = data.draw(texts)
    engine.add_documents(
        (key, " ".join(terms), "") for key, terms in batch.items()
    )


@settings(max_examples=300, deadline=None)
@given(
    corpora,
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
    st.lists(
        st.lists(phrases, min_size=1, max_size=2), min_size=2, max_size=4
    ),
    st.integers(1, 8),
    st.data(),
)
def test_term_entries_serve_other_clauses_and_masks(
    docs, loose, phrase_sets, top_k, data
):
    # Every query carries the same loose terms, so the entries that the
    # first one builds serve other clauses and independently drawn
    # masks, in a cold and then a warm pass.
    engine = build(docs)
    sent = [" ".join(phrase_set + loose) for phrase_set in phrase_sets]
    for query in sent + sent:
        assert_matches_reference(
            engine, query, top_k, draw_within(data, engine)
        )


@settings(max_examples=300, deadline=None)
@given(corpora, loose_queries, st.integers(1, 8), st.data())
def test_write_rebuilds_term_entries(docs, query, top_k, data):
    # "fresh" is unseen (an empty entry) until the write adds it.
    engine = build(docs)
    assert_matches_reference(engine, query, top_k)
    assert_matches_reference(engine, f"{query} fresh", top_k)
    write_batch(engine, docs, query, data)
    assert_matches_reference(engine, query, top_k)
    assert_matches_reference(engine, f"{query} fresh", top_k)


@settings(max_examples=300, deadline=None)
@given(corpora, loose_queries, st.integers(1, 8), st.data())
def test_clone_and_source_keep_their_own_term_entries(
    docs, query, top_k, data
):
    original = build(docs)
    assert_matches_reference(original, f"{query} fresh", top_k)
    clone = original.clone()
    write_batch(clone, docs, query, data)
    assert_matches_reference(clone, f"{query} fresh", top_k)
    assert_matches_reference(original, f"{query} fresh", top_k)


EXTRA = [f"x{letter}" for letter in "abcdefghijkl"]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(WORDS[:-1] + EXTRA[:3]), max_size=8),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(
            st.lists(phrases, min_size=1, max_size=2),
            st.lists(st.sampled_from(WORDS + EXTRA), min_size=1, max_size=3),
        ),
        max_size=40,
    ),
)
def test_term_entries_stay_within_the_doc_level_postings(docs, sent):
    # Unseen loose terms (xd..xl, zork) take one cell each, so a tiny
    # index replaces its memo often.
    engine = build({f"d{i}": terms for i, terms in enumerate(docs)})
    for phrase_set, loose in sent:
        assert_matches_reference(engine, " ".join(phrase_set + loose), 5)
        assert_memo_count_exact(engine.index)


def test_concurrent_term_misses_keep_the_memo_count_exact():
    # Six threads on a 1 us switch interval miss on the same and on
    # different loose terms at once, on three fresh memos in turn.  An
    # insert counted twice for one key would leave `cells` too high.
    extra = [f"x{letter}" for letter in "abcdefghijklmnopqrstuvwx"]
    sent = [
        f'"{phrase}" {a} {b}'
        for phrase in WORDS[:3]
        for a, b in zip(extra + WORDS, WORDS + extra[::-1])
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            # Unqueried padding terms give the memo room for every
            # entry, so no insert replaces it and `cells` covers all.
            engine = build({
                f"d{i}": [WORDS[(i + j) % 6] for j in range(4)]
                + extra[(i + round_) % 5 :: 3]
                + [f"pad{letter}" for letter in "abcdefgh"]
                for i in range(12)
            })
            memo = engine.index.phrase_memo
            expected = {
                query: dense_reference(engine, query, 5, None)
                for query in sent
            }
            errors = []
            start = threading.Barrier(6, timeout=60)

            def client(k: int) -> None:
                # Half the threads walk the queries forwards and half
                # backwards, all from one start: each key is missed by
                # several threads at once.
                start.wait()
                for query in sent[:: 1 if k % 2 else -1]:
                    if answer(engine, query, 5) != expected[query]:
                        errors.append(query)

            threads = [
                threading.Thread(target=client, args=(k,)) for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert engine.index.phrase_memo is memo
            assert_memo_count_exact(engine.index)
    finally:
        sys.setswitchinterval(interval)
