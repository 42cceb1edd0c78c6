"""Trigger-event classifier tests (features + denoising + scoring)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classifier import TriggerEventClassifier
from repro.core.snippets import Snippet
from repro.core.training import AnnotatedSnippet
from repro.features.abstraction import AbstractionPolicy
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.ml.svm import LinearSvm
from repro.text.engine import AnnotationEngine
from repro.text.ner import NerConfig

_engine = AnnotationEngine(NerConfig(gazetteer_coverage=1.0))
_counter = 0


def item(text: str) -> AnnotatedSnippet:
    global _counter
    _counter += 1
    snippet = Snippet(
        doc_id=f"t{_counter}", index=0, sentences=(text,)
    )
    return AnnotatedSnippet(snippet, engine=_engine)


def classifier(driver_id: str, **kwargs) -> TriggerEventClassifier:
    """A classifier reading features through the items' engine."""
    return TriggerEventClassifier(driver_id, text_engine=_engine, **kwargs)


@pytest.fixture(scope="module")
def train_sets():
    positives = [
        item(f"{org} agreed to acquire {other} for $5 billion.")
        for org, other in [
            ("Acme Inc", "Globex Corp"),
            ("Initech Ltd", "Hooli Systems"),
            ("Stark Group", "Wayne Industries"),
            ("Umbra Media Corp", "Nimbus Labs"),
            ("Vertex Partners", "Orion Networks"),
            ("Titan Holdings", "Nova Software"),
        ]
    ] * 3
    negatives = [
        item(text)
        for text in [
            "A guide to hiking trails near Tokyo.",
            "The weather in Paris stayed mild all week.",
            "Read our reviews of gardening tools.",
            "Sign up for the newsletter about local sports.",
            "Residents gathered for a community fundraiser.",
            "Ten tips for enjoying music festivals on a budget.",
        ]
    ] * 5
    return positives, negatives


class TestFit:
    def test_fit_and_score_separates(self, train_sets):
        positives, negatives = train_sets
        clf = classifier("mergers_acquisitions")
        clf.fit(positives, negatives)
        pos_scores = clf.score(positives[:3])
        neg_scores = clf.score(negatives[:3])
        assert pos_scores.min() > neg_scores.max()

    def test_summary_populated(self, train_sets):
        positives, negatives = train_sets
        clf = classifier("mergers_acquisitions")
        clf.fit(positives, negatives, pure_positive=positives[:2])
        summary = clf.summary
        assert summary.n_noisy_positive == len(positives)
        assert summary.n_pure_positive == 2
        assert summary.n_negative == len(negatives)
        assert summary.n_features > 0
        assert 1 <= summary.n_iterations <= 2

    def test_empty_sets_rejected(self, train_sets):
        positives, negatives = train_sets
        clf = classifier("x")
        with pytest.raises(ValueError):
            clf.fit([], negatives)
        with pytest.raises(ValueError):
            clf.fit(positives, [])

    def test_score_before_fit_raises(self, train_sets):
        positives, _ = train_sets
        with pytest.raises(RuntimeError):
            classifier("x").score(positives)

    def test_score_empty_input(self, train_sets):
        positives, negatives = train_sets
        clf = classifier("x").fit(positives, negatives)
        assert clf.score([]).shape == (0,)


class TestPredict:
    def test_threshold_semantics(self, train_sets):
        positives, negatives = train_sets
        clf = classifier("x").fit(positives, negatives)
        strict = clf.predict(positives + negatives, threshold=0.99)
        loose = clf.predict(positives + negatives, threshold=0.01)
        assert strict.sum() <= loose.sum()

    def test_predictions_are_binary(self, train_sets):
        positives, negatives = train_sets
        clf = classifier("x").fit(positives, negatives)
        predictions = clf.predict(positives)
        assert set(np.unique(predictions)) <= {0, 1}


class TestConfigurations:
    def test_defaults_match_paper(self):
        clf = TriggerEventClassifier("x")
        # Features are always read through an engine: a private one
        # when none is passed.
        assert isinstance(clf.text_engine, AnnotationEngine)
        assert clf._reducer.max_iter == 2  # "after two iterations"
        assert clf._reducer.oversample_pure == 3  # "... factor of 3"
        assert clf.policy == AbstractionPolicy.paper_default()
        assert isinstance(
            clf._reducer.classifier_factory(), MultinomialNaiveBayes
        )

    def test_custom_classifier_factory(self, train_sets):
        positives, negatives = train_sets
        clf = classifier(
            "x", classifier_factory=lambda: LinearSvm(epochs=3)
        )
        clf.fit(positives, negatives)
        assert (clf.score(positives[:3]) > 0.5).all()

    def test_no_abstraction_policy_also_works(self, train_sets):
        positives, negatives = train_sets
        clf = classifier(
            "x", policy=AbstractionPolicy.none()
        )
        clf.fit(positives, negatives)
        assert clf.score(positives[:1])[0] > 0.5

    def test_features_of_abstraction(self, train_sets):
        positives, _ = train_sets
        clf = classifier("x")
        tokens = clf.features_of(positives[0])
        assert "__ORG__" in tokens
        assert "__CURRENCY__" in tokens
