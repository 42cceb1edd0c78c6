"""An index built from a token stream (sharded ingestion's output)
equals one built by per-document writes, and stays writable."""

from __future__ import annotations

import numpy as np

from repro.search.index import InvertedIndex
from tests.search.helpers import postings_snapshot

DOCS = [
    ("d0", "the quick brown fox jumps over the lazy dog", "t0"),
    ("d1", "the dog barks at the quick fox", "t1"),
    ("d2", "revenue rose sharply this quarter", "t2"),
    ("d3", "", "t3"),
    ("d4", "the quarter closed with revenue up", "t4"),
]


def build_flat(docs=DOCS):
    """An index over ``docs`` built from one doc-major term-id stream,
    vocab in first-appearance order — the ingester's hand-over."""
    vocab_ids: dict[str, int] = {}
    streams = []
    doc_ptr = [0]
    for _, text, _ in docs:
        ids = [
            vocab_ids.setdefault(term, len(vocab_ids))
            for term in text.split()
        ]
        streams.extend(ids)
        doc_ptr.append(len(streams))
    return InvertedIndex.from_token_stream(
        vocab=list(vocab_ids),
        doc_keys=[key for key, _, _ in docs],
        titles=[title for _, _, title in docs],
        token_terms=np.asarray(streams, dtype=np.int32),
        doc_ptr=np.asarray(doc_ptr, dtype=np.int64),
    )


def classic(docs=DOCS):
    index = InvertedIndex()
    for key, text, title in docs:
        index.add_document(key, text, title, terms=text.split())
    return index


ALL_TERMS = sorted({t for _, text, _ in DOCS for t in text.split()})


class TestParity:
    def test_postings_match_classic_build(self):
        flat, reference = build_flat(), classic()
        assert postings_snapshot(flat, ALL_TERMS) == postings_snapshot(
            reference, ALL_TERMS
        )
        for term in ALL_TERMS:
            assert flat.document_frequency(
                term
            ) == reference.document_frequency(term)

    def test_lengths_titles_and_keys(self):
        index, reference = build_flat(), classic()
        assert index.doc_keys() == reference.doc_keys()
        assert index.vocab == reference.vocab
        for key, _, _ in DOCS:
            assert index.doc_length(key) == reference.doc_length(key)
            assert index.title(key) == reference.title(key)
        assert index.n_docs == reference.n_docs
        assert index.total_terms == reference.total_terms

    def test_phrase_docs(self):
        assert build_flat().phrase_docs(["quick", "fox"]) == classic(
        ).phrase_docs(["quick", "fox"])


class TestMutation:
    def test_add_document_after_adoption_appends_in_order(self):
        index = build_flat()
        index.add_document("d5", "", terms=["the", "new", "dog"])
        reference = classic()
        reference.add_document("d5", "", terms=["the", "new", "dog"])
        terms = ALL_TERMS + ["new"]
        assert postings_snapshot(index, terms) == postings_snapshot(
            reference, terms
        )
        # Ordering matters: the stream's docs come first.
        assert list(postings_snapshot(index, ["the"])["the"]) == [
            "d0", "d1", "d4", "d5"
        ]

    def test_replace_flat_document(self):
        index = build_flat()
        index.add_document("d2", "", terms=["fresh", "terms"])
        reference = classic()
        reference.add_document("d2", "", terms=["fresh", "terms"])
        terms = ALL_TERMS + ["fresh", "terms"]
        assert postings_snapshot(index, terms) == postings_snapshot(
            reference, terms
        )
        assert index.doc_keys() == ["d0", "d1", "d3", "d4", "d2"]


class TestCloneAndPersistence:
    def test_clone_shares_flat_backing(self):
        index = build_flat()
        twin = index.clone()
        assert twin.sorted_doc is index.sorted_doc
        twin.add_document("d0", "", terms=["replaced"])
        # The original is untouched.
        assert index.doc_length("d0") == 9
        assert "d0" in postings_snapshot(index, ["the"])["the"]
        assert "d0" not in postings_snapshot(twin, ["the"])["the"]

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "index.npz"
        build_flat().save(path)
        loaded = InvertedIndex.load(path)
        assert postings_snapshot(loaded, ALL_TERMS) == postings_snapshot(
            classic(), ALL_TERMS
        )
        assert loaded.doc_keys() == classic().doc_keys()
