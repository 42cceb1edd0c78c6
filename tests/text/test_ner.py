"""NER tests: the 13 categories, gazetteer coverage, pattern back-off."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.text.ner as ner_module
from repro.corpus import vocab
from repro.text.ner import (
    ENTITY_CATEGORIES,
    NamedEntityRecognizer,
    NerConfig,
)
from repro.text.tokenizer import tokenize_words
from tests.text.ner_reference import reference_recognize_words


@pytest.fixture(scope="module")
def ner():
    return NamedEntityRecognizer(NerConfig(gazetteer_coverage=1.0))


def recognize(ner, text):
    return ner.recognize_words(tokenize_words(text))


def labels_of(ner, text):
    return [(e.label, e.text) for e in recognize(ner, text)]


class TestCategories:
    def test_category_list_matches_paper(self):
        assert ENTITY_CATEGORIES == (
            "ORG", "DESIG", "OBJ", "TIM", "PERIOD", "CURRENCY", "YEAR",
            "PRCNT", "PROD", "PLC", "PRSN", "LNGTH", "CNT",
        )

    def test_org_from_gazetteer(self, ner):
        assert ("ORG", "Acme Inc") in labels_of(
            ner, "Acme Inc announced results."
        )

    def test_multiword_org(self, ner):
        found = labels_of(ner, "Globex Data Systems expanded.")
        assert ("ORG", "Globex Data Systems") in found

    def test_person_from_gazetteer(self, ner):
        assert ("PRSN", "James Smith") in labels_of(
            ner, "James Smith resigned."
        )

    def test_place(self, ner):
        assert ("PLC", "New York") in labels_of(
            ner, "offices in New York opened"
        )

    def test_designation(self, ner):
        assert ("DESIG", "CEO") in labels_of(ner, "the CEO resigned")

    def test_multiword_designation(self, ner):
        assert ("DESIG", "Chief Executive Officer") in labels_of(
            ner, "named Chief Executive Officer today"
        )

    def test_product(self, ner):
        assert ("PROD", "CloudSuite") in labels_of(
            ner, "the CloudSuite platform"
        )

    def test_object(self, ner):
        assert ("OBJ", "database") in labels_of(
            ner, "a new database arrived"
        )

    def test_currency_dollar(self, ner):
        found = labels_of(ner, "a deal worth $4.5 billion closed")
        assert ("CURRENCY", "$4.5 billion") in found

    def test_currency_spelled(self, ner):
        found = labels_of(ner, "paid 20 million dollars for it")
        assert ("CURRENCY", "20 million dollars") in found

    def test_percent_symbol(self, ner):
        assert ("PRCNT", "12%") in labels_of(ner, "grew 12% this year")

    def test_percent_word(self, ner):
        assert ("PRCNT", "12 percent") in labels_of(
            ner, "grew 12 percent overall"
        )

    def test_year(self, ner):
        assert ("YEAR", "1998") in labels_of(ner, "founded in 1998 by")

    def test_count(self, ner):
        assert ("CNT", "500") in labels_of(ner, "employs 500 people")

    def test_length_unit(self, ner):
        assert ("LNGTH", "40 terabytes") in labels_of(
            ner, "stores 40 terabytes of data"
        )

    def test_time(self, ner):
        assert ("TIM", "3 pm") in labels_of(ner, "opens at 3 pm daily")

    def test_period_month(self, ner):
        assert ("PERIOD", "January") in labels_of(
            ner, "starting in January next"
        )

    def test_period_relative(self, ner):
        assert ("PERIOD", "last year") in labels_of(
            ner, "profits fell last year"
        )

    def test_period_quarter(self, ner):
        found = labels_of(ner, "in the fourth quarter results rose")
        assert any(label == "PERIOD" for label, _ in found)


class TestPatternBackoff:
    def test_honorific_person_out_of_gazetteer(self, ner):
        assert ("PRSN", "Mr. Zork Blat") in labels_of(
            ner, "Mr. Zork Blat resigned."
        )

    def test_unknown_org_with_suffix(self, ner):
        found = labels_of(ner, "Zorkatron Inc announced a deal.")
        assert ("ORG", "Zorkatron Inc") in found

    def test_known_first_name_pattern(self, ner):
        found = labels_of(ner, "and James Zorkable was promoted")
        assert ("PRSN", "James Zorkable") in found

    def test_plain_unknown_capitalized_not_entity(self, ner):
        found = labels_of(ner, "the Zorkatron was tested")
        assert not any(text == "Zorkatron" for _, text in found)


class TestCoverage:
    def test_zero_coverage_drops_gazetteer(self):
        ner = NamedEntityRecognizer(NerConfig(gazetteer_coverage=0.0))
        found = labels_of(ner, "James Smith visited London.")
        assert ("PRSN", "James Smith") not in found

    def test_coverage_is_deterministic(self):
        a = NamedEntityRecognizer(NerConfig(gazetteer_coverage=0.5))
        b = NamedEntityRecognizer(NerConfig(gazetteer_coverage=0.5))
        text = "Acme Inc hired Mary Jones in Tokyo."
        assert labels_of(a, text) == labels_of(b, text)

    def test_partial_coverage_annotates_less(self):
        # Places have no pattern back-off, so dropped gazetteer entries
        # stay unannotated (orgs with legal suffixes would be rescued by
        # the suffix pattern instead).
        full = NamedEntityRecognizer(NerConfig(gazetteer_coverage=1.0))
        thin = NamedEntityRecognizer(NerConfig(gazetteer_coverage=0.2))
        text = " ".join(
            f"offices opened in {place}." for place in [
                "Tokyo", "Paris", "Berlin", "Mumbai", "Seattle",
                "Boston", "Chicago", "Austin", "Toronto", "Sydney",
            ]
        )
        n_full = len(recognize(full, text))
        n_thin = len(recognize(thin, text))
        assert n_thin < n_full


class TestSpans:
    def test_entities_do_not_overlap(self, ner):
        text = (
            "Acme Inc named James Smith CEO in New York on Monday, "
            "paying $4.5 billion for 40 terabytes and 12% of Globex Corp."
        )
        spans = sorted(
            (e.start, e.end) for e in recognize(ner, text)
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_entity_text_matches_span(self, ner):
        from repro.text.tokenizer import tokenize

        text = "Globex Corp opened offices in Hong Kong."
        tokens = [t.text for t in tokenize(text)]
        for entity in recognize(ner, text):
            assert entity.text == " ".join(
                tokens[entity.start : entity.end]
            )


#: Words that open, continue or sit next to entities: gazetteer entries'
#: words, shape-rule words, back-off pattern words, TitleCase words and
#: plain words, with and without trailing periods.
_ENTRY_WORDS = sorted({
    word
    for entry in (
        vocab.ORGANIZATIONS[:60] + vocab.PEOPLE[:40] + vocab.PLACES
        + vocab.DESIGNATIONS + vocab.PRODUCTS + vocab.MONTHS
        + vocab.QUARTERS + vocab.MEASUREMENT_UNITS
    )
    for word in entry.split()
})
_SHAPE_WORDS = [
    "$5", "$", "5", "12", "12%", "%", "4.5", "1,200", "2004", "usd", "EUR",
    "Rs.", "percent", "million", "billion", "dollars", "euros", ":", "10",
    "am", "p.m.", "last", "year", "this", "quarter", "fiscal", "the",
    "fourth", "later", "earlier", "km", "Monday",
]
_PATTERN_WORDS = (
    [name.lower() for name in vocab.FIRST_NAMES]
    + vocab.FIRST_NAMES[:10] + vocab.LAST_NAMES[:10] + vocab.HONORIFICS
    + vocab.ORG_SUFFIXES + ["Inc.", "Corp.", "Foobar", "Zorblat", "Widgets"]
)
_PLAIN_WORDS = ["acquired", "shares", "rose", ".", ",", "!", "?", "-", "a"]
_WORDS = st.sampled_from(
    _ENTRY_WORDS + _SHAPE_WORDS + _PATTERN_WORDS + _PLAIN_WORDS
)

_RECOGNIZERS = {
    (backoff, coverage): NamedEntityRecognizer(
        NerConfig(gazetteer_coverage=coverage, pattern_backoff=backoff)
    )
    for backoff in (True, False)
    for coverage in (1.0, 0.9, 0.4)
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_WORDS, max_size=30),
    st.booleans(),
    st.sampled_from([1.0, 0.9, 0.4]),
)
def test_skipping_inert_words_never_changes_entities(
    words, pattern_backoff, coverage
):
    ner = _RECOGNIZERS[(pattern_backoff, coverage)]
    assert ner.recognize_words(words) == reference_recognize_words(
        ner, words
    )


def test_inert_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(ner_module, "INERT_MEMO_BOUND", 8)
    ner = NamedEntityRecognizer()
    for index in range(50):
        words = [f"word{index}", "acquired", f"Zorblat{index}", "Inc"]
        assert ner.recognize_words(words) == reference_recognize_words(
            ner, words
        )
        assert len(ner._inert_memo) <= 8


def test_a_text_of_inert_words_has_no_entities():
    ner = NamedEntityRecognizer()
    words = ["shares", "rose", "sharply", "on", "news", "."]
    assert ner.recognize_words(words) == []
    # Every word is now memoized as inert (no matcher can open there).
    assert all(ner._inert_memo[word][0] == 0 for word in words)
    assert ner.recognize_words([]) == []
