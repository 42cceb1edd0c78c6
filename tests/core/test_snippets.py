"""Snippet-generator tests: windowing, labels, raw-text chunking."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.snippets import SnippetGenerator
from repro.corpus.generator import CorpusConfig, CorpusGenerator


class TestWindowing:
    def test_default_is_disjoint_threes(self):
        sentences = [f"Sentence {i}." for i in range(7)]
        snippets = SnippetGenerator().from_sentences("d", sentences)
        assert [len(s.sentences) for s in snippets] == [3, 3, 1]

    def test_window_of_two(self):
        sentences = [f"S{i}." for i in range(5)]
        snippets = SnippetGenerator(window=2).from_sentences(
            "d", sentences
        )
        assert [len(s.sentences) for s in snippets] == [2, 2, 1]

    def test_overlapping_stride(self):
        sentences = [f"S{i}." for i in range(4)]
        snippets = SnippetGenerator(window=3, stride=1).from_sentences(
            "d", sentences
        )
        assert len(snippets) == 2
        assert snippets[0].sentences[1] == snippets[1].sentences[0]

    def test_snippet_ids_unique(self):
        sentences = [f"S{i}." for i in range(9)]
        snippets = SnippetGenerator().from_sentences("d", sentences)
        ids = [s.snippet_id for s in snippets]
        assert len(set(ids)) == len(ids)

    def test_text_joins_sentences(self):
        snippets = SnippetGenerator().from_sentences(
            "d", ["One.", "Two.", "Three."]
        )
        assert snippets[0].text == "One. Two. Three."

    def test_empty_sentence_list(self):
        assert SnippetGenerator().from_sentences("d", []) == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SnippetGenerator(window=0)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            SnippetGenerator(stride=0)

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError):
            SnippetGenerator().from_sentences(
                "d", ["One."], labels=["x", "y"]
            )


class TestLabels:
    def test_labels_roll_up_into_snippets(self):
        sentences = ["A.", "B.", "C.", "D."]
        labels = [None, "driver1", None, None]
        snippets = SnippetGenerator().from_sentences(
            "d", sentences, labels
        )
        assert snippets[0].true_drivers == {"driver1"}
        assert snippets[1].true_drivers == frozenset()

    def test_is_positive_for(self):
        snippets = SnippetGenerator().from_sentences(
            "d", ["A."], ["driver1"]
        )
        assert snippets[0].is_positive_for("driver1")
        assert not snippets[0].is_positive_for("driver2")


class TestFromDocument:
    def test_document_snippets_carry_ground_truth(self):
        generator = CorpusGenerator(CorpusConfig(seed=2))
        document = generator.generate_document("ma_news")
        snippets = SnippetGenerator().from_document(document)
        assert any(
            s.is_positive_for("mergers_acquisitions") for s in snippets
        )
        assert all(s.doc_id == document.doc_id for s in snippets)


class TestFromText:
    def test_uses_sentence_chunker(self):
        text = "Acme grew fast. Globex shrank. Initech held steady. Done."
        snippets = SnippetGenerator().from_text("d", text)
        assert len(snippets) == 2
        assert snippets[0].sentences[0] == "Acme grew fast."

    def test_raw_text_snippets_have_no_truth(self):
        snippets = SnippetGenerator().from_text("d", "One. Two.")
        assert snippets[0].true_drivers == frozenset()


@given(
    n_sentences=st.integers(min_value=0, max_value=40),
    window=st.integers(min_value=1, max_value=6),
)
def test_every_sentence_lands_in_exactly_one_disjoint_window(
    n_sentences, window
):
    sentences = [f"S{i}." for i in range(n_sentences)]
    snippets = SnippetGenerator(window=window).from_sentences(
        "d", sentences
    )
    recovered = [s for snippet in snippets for s in snippet.sentences]
    assert recovered == sentences
