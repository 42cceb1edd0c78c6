"""Phrase matching against a pure-Python sliding-window matcher.

:meth:`InvertedIndex.phrase_docs` intersects sorted ``(doc, position)``
keys, starting from the phrase's rarest term shifted back by its offset.
These properties compare it with the obvious definition: slide the
phrase over every document's words and count the windows that equal it.
The vocabulary is small, so repeated and overlapping phrases are common
(``deal deal`` occurs twice in ``deal deal deal``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, strategies as st

from repro.search.index import InvertedIndex
from tests.search.helpers import index_of

WORDS = ["deal", "acme", "ceo", "new", "growth"]
#: A phrase term no document holds.
UNKNOWN = "zork"

words_strategy = st.lists(st.sampled_from(WORDS), max_size=12)

docs_strategy = st.dictionaries(
    keys=st.sampled_from([f"doc-{i}" for i in range(6)]),
    values=words_strategy,
    max_size=6,
)

phrase_strategy = st.lists(
    st.sampled_from(WORDS + [UNKNOWN]), min_size=1, max_size=4
)


def sliding_window(docs: dict[str, list[str]], phrase) -> dict[str, int]:
    """``doc_key -> count`` of the windows of each document's words
    that equal ``phrase``."""
    phrase = list(phrase)
    width = len(phrase)
    counts = {}
    for key, words in docs.items():
        hits = sum(
            words[start:start + width] == phrase
            for start in range(len(words) - width + 1)
        )
        if hits:
            counts[key] = hits
    return counts


def build(docs: dict[str, list[str]]) -> InvertedIndex:
    return index_of(
        (key, " ".join(words), "") for key, words in docs.items()
    )


@given(docs_strategy, phrase_strategy)
def test_phrase_docs_equal_sliding_window(docs, phrase):
    assert build(docs).phrase_docs(phrase) == sliding_window(docs, phrase)


@given(docs_strategy, st.data())
def test_phrases_cut_from_the_documents_match(docs, data):
    """Phrases taken from the text itself, so every one matches."""
    assume(any(docs.values()))
    key = data.draw(st.sampled_from(sorted(k for k in docs if docs[k])))
    words = docs[key]
    start = data.draw(st.integers(0, len(words) - 1))
    width = data.draw(st.integers(1, min(4, len(words) - start)))
    phrase = words[start:start + width]
    hits = build(docs).phrase_docs(phrase)
    assert hits == sliding_window(docs, phrase)
    assert key in hits


@given(
    st.lists(
        st.lists(st.sampled_from(["deal", "acme", "new"]), max_size=8),
        min_size=1, max_size=6,
    ),
    st.lists(st.sampled_from(["deal", "acme", "new"]), min_size=1,
             max_size=3),
    st.data(),
)
def test_rarest_term_at_any_offset(bodies, others, data):
    """The rarest term sits at position 0 of every document holding it
    and at any phrase offset; a shifted key that would start before its
    document (or in the previous one) never matches."""
    docs = {
        f"doc-{i}": (["ceo"] if i % 2 else []) + body
        for i, body in enumerate(bodies)
    }
    offset = data.draw(st.integers(0, len(others)))
    phrase = others[:offset] + ["ceo"] + others[offset:]
    index = build(docs)
    n_rare = len(index.postings("ceo")[0])
    assume(all(len(index.postings(term)[0]) > n_rare for term in others))
    assert index.phrase_docs(phrase) == sliding_window(docs, phrase)


@given(
    st.lists(
        st.tuples(st.sampled_from([f"doc-{i}" for i in range(6)]),
                  words_strategy),
        max_size=12,
    ),
    st.integers(1, 4),
    phrase_strategy,
)
def test_batched_replacing_writes(writes, n_batches, phrase):
    """Re-added keys hold their last text; replaced text never matches."""
    index = InvertedIndex()
    size = -(-len(writes) // n_batches) or 1
    for start in range(0, len(writes), size):
        index.add_documents(
            (key, " ".join(words), "")
            for key, words in writes[start:start + size]
        )
    final = dict(writes)
    assert index.phrase_docs(phrase) == sliding_window(final, phrase)


@given(docs_strategy, phrase_strategy)
def test_save_load_round_trip(docs, phrase):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.npz"
        build(docs).save(path)
        loaded = InvertedIndex.load(path)
    assert loaded.phrase_docs(phrase) == sliding_window(docs, phrase)


def test_overlapping_occurrences_all_count():
    docs = {"d": ["deal", "deal", "deal"]}
    assert build(docs).phrase_docs(["deal", "deal"]) == {"d": 2}


def test_shifted_key_before_a_document_start_never_matches():
    # ``ceo`` is rarest, at position 0 of document 0 (the shifted key
    # is negative) and of document 1 (it points into document 0).
    docs = {"a": ["ceo", "deal", "deal"], "b": ["ceo", "deal"]}
    index = build(docs)
    assert index.phrase_docs(["deal", "ceo"]) == {}
    docs_hit, counts = index.phrase_matches(["deal", "ceo"])
    assert len(docs_hit) == len(counts) == 0
    assert index.phrase_docs(["ceo", "deal"]) == {"a": 1, "b": 1}
    assert np.array_equal(
        index.phrase_matches(["ceo", "deal"])[1], [1, 1]
    )
