"""Semantic-orientation lexicon tests, including PMI-IR induction."""

from __future__ import annotations

import pytest

from repro.core.lexicon import (
    OrientationLexicon,
    induce_lexicon,
    revenue_growth_lexicon,
)
from tests.search.helpers import build_engine_from_pairs


class TestLexiconScoring:
    def test_simple_positive(self):
        lexicon = OrientationLexicon({"profit": 1.0})
        assert lexicon.score("a profit was made") == 1.0

    def test_phrase_weights_sum(self):
        lexicon = OrientationLexicon({"profit": 1.0, "loss": -1.0})
        assert lexicon.score("profit here, loss there") == 0.0

    def test_longer_phrase_shadows_substring(self):
        # "sharp decline" must not also count "decline".
        lexicon = OrientationLexicon(
            {"sharp decline": -2.0, "decline": -1.0}
        )
        assert lexicon.score("a sharp decline happened") == -2.0

    def test_separate_occurrences_both_count(self):
        lexicon = OrientationLexicon(
            {"sharp decline": -2.0, "decline": -1.0}
        )
        text = "a sharp decline, then another decline"
        assert lexicon.score(text) == -3.0

    def test_punctuation_stripped(self):
        lexicon = OrientationLexicon({"profit": 1.0})
        assert lexicon.score("Profit!") == 1.0

    def test_add_normalizes(self):
        lexicon = OrientationLexicon()
        lexicon.add("  Sharp   Decline ", -2.0)
        assert lexicon.weights == {"sharp decline": -2.0}

    def test_add_empty_rejected(self):
        with pytest.raises(ValueError):
            OrientationLexicon().add("   ", 1.0)

    def test_empty_lexicon_scores_zero(self):
        assert OrientationLexicon().score("anything at all") == 0.0


class TestRevenueGrowthLexicon:
    def test_paper_examples_weighted_strongly(self):
        lexicon = revenue_growth_lexicon()
        # Section 4: 'sharp decline' weighted more than 'loss'.
        assert abs(lexicon.weights["sharp decline"]) > abs(
            lexicon.weights["loss"]
        )
        assert lexicon.weights["significant growth"] > (
            lexicon.weights["profit"]
        )

    def test_signs(self):
        lexicon = revenue_growth_lexicon()
        assert lexicon.weights["solid quarter"] > 0
        assert lexicon.weights["severe losses"] < 0

    def test_scores_example_snippets(self):
        lexicon = revenue_growth_lexicon()
        strong = "The company posted record profits and solid quarter."
        weak = "The company posted a profit."
        assert lexicon.score(strong) > lexicon.score(weak) > 0


class TestPmiInduction:
    @pytest.fixture(scope="class")
    def engine(self):
        documents = []
        for i in range(12):
            documents.append(
                (f"good{i}",
                 "the company saw excellent growth and stellar gains")
            )
            documents.append(
                (f"bad{i}",
                 "the company suffered poor results and dire losses")
            )
        documents.append(("neutral", "the company exists"))
        return build_engine_from_pairs(documents)

    def test_positive_candidate_gets_positive_weight(self, engine):
        lexicon = induce_lexicon(
            engine, ["stellar gains"],
            positive_seeds=["excellent"], negative_seeds=["poor"],
        )
        assert lexicon.weights["stellar gains"] > 0

    def test_negative_candidate_gets_negative_weight(self, engine):
        lexicon = induce_lexicon(
            engine, ["dire losses"],
            positive_seeds=["excellent"], negative_seeds=["poor"],
        )
        assert lexicon.weights["dire losses"] < 0

    def test_unseen_candidate_skipped(self, engine):
        lexicon = induce_lexicon(
            engine, ["purple elephants"],
            positive_seeds=["excellent"], negative_seeds=["poor"],
        )
        assert "purple elephants" not in lexicon.weights

    def test_weights_clipped_to_scale(self, engine):
        lexicon = induce_lexicon(
            engine, ["stellar gains", "dire losses"],
            positive_seeds=["excellent"], negative_seeds=["poor"],
            scale=1.5,
        )
        for weight in lexicon.weights.values():
            assert -1.5 <= weight <= 1.5

    def test_empty_seeds_rejected(self, engine):
        with pytest.raises(ValueError):
            induce_lexicon(engine, ["x"], positive_seeds=[])
