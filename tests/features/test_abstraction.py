"""Feature-abstraction tests: PA/IV pairs, policy, token abstraction."""

from __future__ import annotations

import pytest

from repro.features.abstraction import (
    AbstractionAnalyzer,
    AbstractionPolicy,
    abstract_tokens,
    iv_pairs,
    pa_pairs,
)
from repro.text.annotator import Annotator
from repro.text.ner import ENTITY_CATEGORIES, NerConfig


@pytest.fixture(scope="module")
def full_annotator():
    return Annotator(NerConfig(gazetteer_coverage=1.0))


@pytest.fixture(scope="module")
def labeled_corpus(full_annotator):
    positives = [
        "Acme Inc acquired Globex Corp for $5 billion.",
        "Initech Ltd agreed to acquire Hooli Systems.",
        "Stark Group bought Wayne Industries in January.",
    ]
    negatives = [
        "A guide to hiking trails in Tokyo.",
        "The weather in Paris stayed mild.",
        "Read reviews about gardening tips.",
    ]
    texts = [full_annotator.annotate(t) for t in positives + negatives]
    labels = [1] * len(positives) + [0] * len(negatives)
    return texts, labels


class TestObservationPairs:
    def test_pa_one_observation_per_text(self, labeled_corpus):
        texts, labels = labeled_corpus
        pairs = pa_pairs(texts, labels, "ORG")
        assert len(pairs) == len(texts)

    def test_pa_values_present_absent(self, labeled_corpus):
        texts, labels = labeled_corpus
        values = {x for x, _ in pa_pairs(texts, labels, "ORG")}
        assert values <= {"present", "absent"}

    def test_iv_emits_instances(self, labeled_corpus):
        texts, labels = labeled_corpus
        pairs = iv_pairs(texts, labels, "ORG")
        instances = {x for x, _ in pairs}
        assert "acme inc" in instances

    def test_iv_skips_texts_without_category(self, labeled_corpus):
        # IV measures instance information among occurrences only;
        # absence is PA's job (see the iv_pairs docstring).
        texts, labels = labeled_corpus
        pairs = iv_pairs(texts, labels, "ORG")
        assert all(label == 1 for _, label in pairs)


class TestAnalyzer:
    def test_org_prefers_pa_on_shared_vocabulary(self, full_annotator):
        # Same companies appear in both classes: the instance value
        # carries nothing, presence separates perfectly.
        positives = [
            f"{org} acquired a rival." for org in
            ("Acme Inc", "Globex Corp", "Initech Ltd")
        ] * 3
        negatives = ["the weather stayed mild in the hills."] * 9
        texts = [
            full_annotator.annotate(t) for t in positives + negatives
        ]
        labels = [1] * len(positives) + [0] * len(negatives)
        comparison = AbstractionAnalyzer(smoothing=0.5).compare(
            texts, labels, "ORG"
        )
        assert comparison.prefer_abstraction

    def test_verbs_prefer_iv(self, full_annotator):
        # Every text has verbs (PA useless); WHICH verb separates.
        positives = ["they acquired the firm."] * 6
        negatives = ["they hiked the trail."] * 6
        texts = [
            full_annotator.annotate(t) for t in positives + negatives
        ]
        labels = [1] * 6 + [0] * 6
        comparison = AbstractionAnalyzer(smoothing=0.5).compare(
            texts, labels, "vb"
        )
        assert not comparison.prefer_abstraction
        assert comparison.rig_iv > comparison.rig_pa

    def test_compare_all_covers_entities_and_pos(self, labeled_corpus):
        texts, labels = labeled_corpus
        comparisons = AbstractionAnalyzer().compare_all(texts, labels)
        categories = {c.category for c in comparisons}
        assert set(ENTITY_CATEGORIES) <= categories
        assert {"vb", "nn", "jj"} <= categories


class TestPolicy:
    def test_paper_default_abstracts_all_entities(self):
        policy = AbstractionPolicy.paper_default()
        assert policy.abstract_categories == frozenset(ENTITY_CATEGORIES)

    def test_none_policy(self):
        assert AbstractionPolicy.none().abstract_categories == frozenset()

    def test_placeholder_format(self):
        assert AbstractionPolicy().placeholder("ORG") == "__ORG__"


class TestAbstractTokens:
    def test_entities_become_placeholders(self, full_annotator):
        annotated = full_annotator.annotate(
            "Acme Inc acquired Globex Corp."
        )
        tokens = abstract_tokens(
            annotated, AbstractionPolicy.paper_default()
        )
        assert tokens == ["__ORG__", "acquir", "__ORG__"]

    def test_multi_token_entity_single_placeholder(self, full_annotator):
        annotated = full_annotator.annotate(
            "Globex Data Systems expanded rapidly."
        )
        tokens = abstract_tokens(
            annotated, AbstractionPolicy.paper_default()
        )
        assert tokens.count("__ORG__") == 1

    def test_none_policy_keeps_stemmed_words(self, full_annotator):
        annotated = full_annotator.annotate("Acme Inc acquired assets.")
        tokens = abstract_tokens(annotated, AbstractionPolicy.none())
        assert "acm" in tokens  # Porter stem of "acme"
        assert "__ORG__" not in tokens

    def test_stopwords_dropped(self, full_annotator):
        annotated = full_annotator.annotate("the firm was in trouble")
        tokens = abstract_tokens(
            annotated, AbstractionPolicy.paper_default()
        )
        assert "the" not in tokens
        assert "was" not in tokens

    def test_punctuation_dropped(self, full_annotator):
        annotated = full_annotator.annotate("Profits, however, fell.")
        tokens = abstract_tokens(
            annotated, AbstractionPolicy.paper_default()
        )
        assert "," not in tokens
        assert "." not in tokens

    def test_words_are_stemmed_lowercase(self, full_annotator):
        annotated = full_annotator.annotate("Profits Growing Strongly")
        tokens = abstract_tokens(
            annotated, AbstractionPolicy.paper_default()
        )
        assert all(t == t.lower() for t in tokens)
        assert "profit" in tokens
