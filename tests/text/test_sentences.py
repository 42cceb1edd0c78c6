"""Unit + property tests for the rule-based sentence chunker."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.sentences import split_sentence_texts, split_sentences
from repro.text.tokenizer import ABBREVIATIONS
from tests.text.sentences_reference import reference_split_sentences


class TestBoundaries:
    def test_two_simple_sentences(self):
        assert split_sentence_texts("It rained. We left.") == [
            "It rained.", "We left.",
        ]

    def test_question_and_exclamation(self):
        texts = split_sentence_texts("Really? Yes! Indeed.")
        assert texts == ["Really?", "Yes!", "Indeed."]

    def test_abbreviation_does_not_split(self):
        texts = split_sentence_texts("Mr. Smith joined Acme Inc. in May.")
        assert len(texts) == 1

    def test_person_initial_does_not_split(self):
        texts = split_sentence_texts("J. Smith was promoted. He accepted.")
        assert len(texts) == 2
        assert texts[0] == "J. Smith was promoted."

    def test_decimal_number_does_not_split(self):
        texts = split_sentence_texts("Revenue grew 4.5 percent. Nice.")
        assert len(texts) == 2

    def test_number_at_sentence_end_splits(self):
        texts = split_sentence_texts("The year was 1998. Markets rose.")
        assert len(texts) == 2

    def test_lowercase_continuation_does_not_split(self):
        # An unknown abbreviation followed by lower-case text.
        texts = split_sentence_texts("The approx. value was high.")
        assert len(texts) == 1

    def test_no_trailing_punctuation(self):
        texts = split_sentence_texts("An unterminated fragment")
        assert texts == ["An unterminated fragment"]

    def test_empty_text(self):
        assert split_sentences("") == []

    def test_whitespace_text(self):
        assert split_sentences("  \n ") == []


class TestSpans:
    def test_spans_cover_sentence_text(self):
        text = "Acme acquired Globex. The deal closed in May."
        for sentence in split_sentences(text):
            assert text[sentence.start : sentence.end].strip() == (
                sentence.text
            )

    def test_spans_are_ordered(self):
        text = "One. Two. Three."
        spans = split_sentences(text)
        for before, after in zip(spans, spans[1:]):
            assert before.end <= after.start


@given(st.lists(
    st.sampled_from([
        "Acme acquired Globex.",
        "Revenue rose 12% in the second quarter.",
        "He joined the board!",
        "Did profits fall?",
    ]),
    min_size=1, max_size=8,
))
def test_joined_sentences_split_back(parts):
    text = " ".join(parts)
    assert split_sentence_texts(text) == parts


@given(st.text(max_size=300))
def test_never_loses_non_whitespace_content(text):
    # Sentence splitting may redistribute whitespace but must preserve
    # every non-whitespace character.
    rebuilt = "".join(s.text for s in split_sentences(text))
    assert sorted(c for c in rebuilt if not c.isspace()) == sorted(
        c for c in text if not c.isspace()
    )


#: Pieces that exercise every rule: abbreviations, initials, numbers,
#: runs of marks, lower- and upper-case continuations, and whitespace
#: that ``str.isspace`` accepts beyond ASCII.
_PIECES = st.one_of(
    st.sampled_from(sorted(ABBREVIATIONS)),
    st.sampled_from(sorted(ABBREVIATIONS)).map(str.title),
    st.text(alphabet="aZbYJ09.!?", min_size=1, max_size=4),
    st.text(alphabet="aZbYJ09.!?", min_size=1, max_size=4),
    st.sampled_from(["Acme", "rose", "J", "4.5", "12", "...", "?!"]),
    st.sampled_from([" ", "  ", "\n", "\t", "\u2003", "\x85", "\xa0", "\x1c"]),
    st.sampled_from([" ", "  ", "\n"]),
    st.characters(),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
def test_split_equals_reference(text):
    assert split_sentences(text) == reference_split_sentences(text)


def test_long_document_equals_reference():
    sentence = (
        "Mr. J. Smith joined Acme Inc. in the U.S. at $4.5 million. "
        "revenue rose 12.5% as sales grew... Did it? Yes! "
    )
    text = sentence * 2000
    assert split_sentences(text) == reference_split_sentences(text)
