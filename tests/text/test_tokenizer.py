"""Unit + property tests for the regex tokenizer."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.tokenizer import (
    ABBREVIATIONS,
    Token,
    tokenize,
    tokenize_words,
)
from tests.text.tokenizer_reference import (
    reference_tokenize,
    reference_tokenize_words,
)


class TestBasicTokenization:
    def test_plain_words(self):
        assert tokenize_words("the quick brown fox") == [
            "the", "quick", "brown", "fox",
        ]

    def test_sentence_final_period_is_separate_token(self):
        assert tokenize_words("It rained.") == ["It", "rained", "."]

    def test_abbreviation_keeps_period(self):
        assert tokenize_words("Mr. Smith arrived.") == [
            "Mr.", "Smith", "arrived", ".",
        ]

    def test_corporate_suffix_abbreviation(self):
        assert "Inc." in tokenize_words("Acme Inc. was sold.")

    def test_dotted_initialism(self):
        assert tokenize_words("the U.S. market")[1] == "U.S."

    def test_currency_amount_single_token(self):
        assert "$4.5" in tokenize_words("paid $4.5 billion")

    def test_currency_with_thousands_separators(self):
        assert "$1,200" in tokenize_words("a $1,200 laptop")

    def test_percentage_single_token(self):
        assert "12%" in tokenize_words("grew 12% this year")

    def test_decimal_percentage(self):
        assert "3.5%" in tokenize_words("up 3.5% overall")

    def test_year_is_one_token(self):
        assert "1998" in tokenize_words("back in 1998 it began")

    def test_hyphenated_word(self):
        assert "Bangalore-based" in tokenize_words(
            "the Bangalore-based firm"
        )

    def test_possessive_kept_together(self):
        assert "company's" in tokenize_words("the company's website")

    def test_comma_is_separate(self):
        assert tokenize_words("a, b") == ["a", ",", "b"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("   \n\t ") == []


class TestOffsets:
    def test_offsets_slice_back_to_token_text(self):
        text = "Acme Corp acquired Globex for $4.5 billion."
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text

    def test_offsets_are_monotonic(self):
        tokens = tokenize("One two three. Four five.")
        for before, after in zip(tokens, tokens[1:]):
            assert before.end <= after.start

    def test_token_is_frozen(self):
        token = tokenize("word")[0]
        assert isinstance(token, Token)
        try:
            token.text = "other"
            raised = False
        except AttributeError:
            raised = True
        assert raised


@given(st.text(max_size=300))
def test_offsets_always_consistent(text):
    for token in tokenize(text):
        assert text[token.start : token.end] == token.text
        assert token.start < token.end


@given(st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    min_size=1, max_size=40,
))
def test_alpha_text_roundtrips_without_loss(text):
    # Purely ASCII-alphabetic text has no split points: one token equal
    # to the input.
    assert tokenize_words(text) == [text]


@given(st.lists(st.sampled_from(
    ["Acme", "acquired", "Globex", "$5", "12%", "1998", "Mr.", "today"]),
    min_size=1, max_size=20))
def test_every_input_word_is_recovered(words):
    text = " ".join(words)
    assert tokenize_words(text) == words


#: Token-shaped pieces, weighted toward letters, digits, the characters
#: the token grammar treats specially (``.,$%'-``), whitespace and the
#: abbreviations whose period stays attached.
_PIECES = st.one_of(
    st.text(alphabet="abcXYZ", min_size=1, max_size=5),
    st.text(alphabet="abcXYZ", min_size=1, max_size=5),
    st.text(alphabet="0123456789", min_size=1, max_size=4),
    st.text(alphabet=".,$%'-", min_size=1, max_size=2),
    st.text(alphabet=".,$%'-", min_size=1, max_size=2),
    st.sampled_from([" ", "  ", "\n", "\t", "\u2003"]),
    st.sampled_from([" ", "  ", "\n", "\t", "\u2003"]),
    st.sampled_from(sorted(ABBREVIATIONS)),
    st.sampled_from(sorted(ABBREVIATIONS)).map(str.upper),
    st.sampled_from(sorted(ABBREVIATIONS)).map(str.title),
    st.characters(),
)
_TEXTS = st.lists(_PIECES, max_size=30).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_TEXTS)
def test_tokenize_words_equals_reference(text):
    assert tokenize_words(text) == reference_tokenize_words(text)


@settings(max_examples=1000, deadline=None)
@given(_TEXTS)
def test_tokenize_equals_reference(text):
    tokens = tokenize(text)
    assert tokens == reference_tokenize(text)
    assert [token.text for token in tokens] == tokenize_words(text)
    for token in tokens:
        assert text[token.start : token.end] == token.text
