"""Inverted index tests: postings, stats, phrase intersection."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.search.index import InvertedIndex
from tests.search.helpers import by_doc


@pytest.fixture
def index():
    idx = InvertedIndex()
    idx.add_document("d1", "acme acquired globex", title="deal")
    idx.add_document("d2", "globex posted revenue growth")
    idx.add_document("d3", "acme named a new ceo and a new cto")
    return idx


class TestPostings:
    def test_term_lookup(self, index):
        assert set(by_doc(index, "acme")) == {"d1", "d3"}

    def test_case_insensitive(self, index):
        assert set(by_doc(index, "ACME")) == {"d1", "d3"}

    def test_unknown_term_empty(self, index):
        docs, positions = index.postings("zork")
        assert len(docs) == len(positions) == 0

    def test_term_frequency(self, index):
        assert len(by_doc(index, "new")["d3"]) == 2

    def test_positions_recorded(self, index):
        assert by_doc(index, "acquired")["d1"] == [1]


class TestStats:
    def test_n_docs(self, index):
        assert index.n_docs == 3

    def test_document_frequency(self, index):
        assert index.document_frequency("globex") == 2
        assert index.document_frequency("zork") == 0

    def test_doc_length(self, index):
        assert index.doc_length("d1") == 3
        assert index.doc_length("missing") == 0

    def test_average_doc_length(self, index):
        total = sum(index.doc_length(k) for k in ("d1", "d2", "d3"))
        assert index.average_doc_length == pytest.approx(total / 3)

    def test_title(self, index):
        assert index.title("d1") == "deal"
        assert index.title("d2") == ""

    def test_empty_index_stats(self):
        idx = InvertedIndex()
        assert idx.n_docs == 0
        assert idx.average_doc_length == 0.0


class TestPhrases:
    def test_phrase_match(self, index):
        assert index.phrase_docs(["new", "ceo"]) == {"d3": 1}

    def test_phrase_requires_adjacency(self, index):
        assert index.phrase_docs(["acme", "globex"]) == {}

    def test_single_word_phrase(self, index):
        assert index.phrase_docs(["globex"]) == {"d1": 1, "d2": 1}

    def test_empty_phrase(self, index):
        assert index.phrase_docs([]) == {}
        docs, counts = index.phrase_matches([])
        assert len(docs) == len(counts) == 0

    def test_phrase_counts_multiple_occurrences(self):
        idx = InvertedIndex()
        idx.add_document("d", "new ceo and another new ceo arrived")
        assert idx.phrase_docs(["new", "ceo"]) == {"d": 2}

    def test_three_word_phrase(self):
        idx = InvertedIndex()
        idx.add_document("d", "they agreed to acquire the firm")
        assert idx.phrase_docs(["agreed", "to", "acquire"]) == {"d": 1}


class TestMutation:
    def test_re_add_replaces(self, index):
        index.add_document("d1", "completely different now")
        assert "d1" not in by_doc(index, "acme")
        assert "d1" in by_doc(index, "different")
        assert index.n_docs == 3
        assert index.doc_keys() == ["d2", "d3", "d1"]

    def test_replaced_terms_drop_out_of_document_frequency(self, index):
        index.add_document("d2", "globex only")
        assert index.document_frequency("revenue") == 0
        assert index.document_frequency("globex") == 2
        assert index.total_terms == 3 + 9 + 2

    def test_batch_repeats_keep_the_last_text(self, index):
        assert index.add_documents([
            ("d4", "first draft", "t"),
            ("d5", "other", ""),
            ("d4", "final text", "t2"),
        ]) == 3
        assert index.doc_keys() == ["d1", "d2", "d3", "d5", "d4"]
        assert by_doc(index, "final") == {"d4": [0]}
        assert by_doc(index, "draft") == {}
        assert index.title("d4") == "t2"

    def test_empty_batch_is_a_no_op(self, index):
        assert index.add_documents([]) == 0
        assert index.n_docs == 3


@given(st.lists(
    st.text(alphabet="abcde", min_size=1, max_size=4),
    min_size=1, max_size=30,
))
def test_phrase_docs_subset_of_single_term_postings(words):
    idx = InvertedIndex()
    idx.add_document("d", " ".join(words))
    for length in (2, 3):
        for start in range(len(words) - length + 1):
            phrase = words[start : start + length]
            hits = idx.phrase_docs(phrase)
            assert set(hits) <= set(by_doc(idx, phrase[0]))
            assert hits  # the phrase genuinely occurs


@given(st.lists(
    st.text(alphabet="abc", min_size=1, max_size=3),
    min_size=1, max_size=20,
))
def test_doc_length_equals_token_count(words):
    idx = InvertedIndex()
    idx.add_document("d", " ".join(words))
    assert idx.doc_length("d") == len(words)


class TestPersistence:
    def test_roundtrip_preserves_search_behaviour(self, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = InvertedIndex.load(path)
        assert loaded.n_docs == index.n_docs
        assert loaded.doc_keys() == index.doc_keys()
        assert loaded.vocab == index.vocab
        assert loaded.doc_length("d1") == index.doc_length("d1")
        assert loaded.title("d1") == index.title("d1")
        assert loaded.phrase_docs(["new", "ceo"]) == (
            index.phrase_docs(["new", "ceo"])
        )
        for term in index.vocab:
            assert by_doc(loaded, term) == by_doc(index, term)
            assert loaded.document_frequency(
                term
            ) == index.document_frequency(term)

    def test_loaded_index_is_mutable(self, index, tmp_path):
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = InvertedIndex.load(path)
        loaded.add_document("d4", "brand new content")
        assert loaded.n_docs == index.n_docs + 1
        loaded.add_document("d1", "no longer about the firm")
        assert "d1" not in by_doc(loaded, "acme")
        assert by_doc(loaded, "new") == {"d3": [3, 7], "d4": [1]}

    def test_empty_index_roundtrip(self, tmp_path):
        path = tmp_path / "index.npz"
        InvertedIndex().save(path)
        loaded = InvertedIndex.load(path)
        assert loaded.n_docs == 0
        loaded.add_document("d", "hello")
        assert by_doc(loaded, "hello") == {"d": [0]}
