"""Annotator pipeline tests: POS + NER merge into per-token categories."""

from __future__ import annotations

import pytest

from repro.text.annotator import Annotator
from repro.text.ner import NerConfig


@pytest.fixture(scope="module")
def annotator():
    return Annotator(NerConfig(gazetteer_coverage=1.0))


class TestMerge:
    def test_entity_tokens_carry_entity_category(self, annotator):
        annotated = annotator.annotate("Acme Inc acquired Globex Corp.")
        by_text = {t.text: t.category for t in annotated.tokens}
        assert by_text["Acme"] == "ORG"
        assert by_text["Inc"] == "ORG"

    def test_non_entity_tokens_carry_pos(self, annotator):
        annotated = annotator.annotate("Acme Inc acquired Globex Corp.")
        by_text = {t.text: t.category for t in annotated.tokens}
        assert by_text["acquired"] == "vb"

    def test_entity_attribute_none_outside_entities(self, annotator):
        annotated = annotator.annotate("profits rose sharply")
        assert all(t.entity is None for t in annotated.tokens)

    def test_entities_carry_their_labels(self, annotator):
        annotated = annotator.annotate(
            "Acme Inc paid $5 billion in January."
        )
        labels = {entity.label for entity in annotated.entities}
        assert {"ORG", "CURRENCY", "PERIOD"} <= labels

    def test_words_helper_matches_tokens(self, annotator):
        annotated = annotator.annotate("Acme Inc expanded.")
        assert annotated.words() == [t.text for t in annotated.tokens]

    def test_token_count_equals_tokenizer_output(self, annotator):
        from repro.text.tokenizer import tokenize

        text = "Acme Inc named Mary Jones CEO on Monday."
        annotated = annotator.annotate(text)
        assert len(annotated.tokens) == len(tokenize(text))


def test_a_sentence_of_inert_words_has_no_entities():
    annotated = Annotator().annotate("shares rose sharply on news.")
    assert annotated.entities == ()
    assert [token.text for token in annotated.tokens] == [
        "shares", "rose", "sharply", "on", "news", ".",
    ]
    assert [token.entity for token in annotated.tokens] == [None] * 6
