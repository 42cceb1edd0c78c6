"""Persistence tests: classifier save/load roundtrips, and the
checkpoint store's encoding and retention."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classifier import TriggerEventClassifier
from repro.core.persistence import (
    CheckpointStore,
    UnsupportedModelError,
    classifier_from_dict,
    classifier_to_dict,
    encode,
    load_classifier,
    load_classifiers,
    save_classifier,
    save_classifiers,
)
from repro.core.snippets import Snippet
from repro.core.training import AnnotatedSnippet
from repro.features.vectorizer import VectorizerConfig
from repro.text.annotator import Annotator

_annotator = Annotator()
_n = 0


def item(text):
    global _n
    _n += 1
    return AnnotatedSnippet(
        snippet=Snippet(doc_id=f"p{_n}", index=0, sentences=(text,)),
        annotated=_annotator.annotate(text),
    )


@pytest.fixture(scope="module")
def train_sets():
    positives = [
        item(f"{a} agreed to acquire {b} for $5 billion.")
        for a, b in [
            ("Acme Inc", "Globex Corp"), ("Initech Ltd", "Hooli Systems"),
            ("Stark Group", "Wayne Industries"),
        ]
    ] * 4
    negatives = [
        item(t) for t in [
            "A guide to hiking trails near Tokyo.",
            "The weather stayed mild all week.",
            "Read our reviews of gardening tools.",
        ]
    ] * 6
    return positives, negatives


def test_roundtrip_preserves_scores(train_sets, tmp_path):
    positives, negatives = train_sets
    clf = TriggerEventClassifier("mergers_acquisitions")
    clf.fit(positives, negatives)

    path = tmp_path / "multinomial_nb.json"
    save_classifier(clf, path)
    loaded = load_classifier(path)

    sample = positives[:3] + negatives[:3]
    assert np.allclose(clf.score(sample), loaded.score(sample))
    assert loaded.driver_id == "mergers_acquisitions"
    assert loaded.policy == clf.policy


def test_roundtrip_keeps_the_ngram_range(train_sets, tmp_path):
    positives, negatives = train_sets
    clf = TriggerEventClassifier(
        "mergers_acquisitions",
        vectorizer_config=VectorizerConfig(min_df=2, ngram_range=(1, 2)),
    )
    clf.fit(positives, negatives)
    unigram = TriggerEventClassifier("mergers_acquisitions")
    unigram.fit(positives, negatives)
    assert set(unigram.vectorizer.vocabulary) < set(clf.vectorizer.vocabulary)

    path = tmp_path / "bigram.json"
    save_classifier(clf, path)
    loaded = load_classifier(path)

    assert loaded.vectorizer.config.ngram_range == (1, 2)
    assert loaded.vectorizer.vocabulary == clf.vectorizer.vocabulary
    sample = positives[:3] + negatives[:3]
    assert np.array_equal(clf.score(sample), loaded.score(sample))


def test_record_without_ngram_range_loads_as_unigram(train_sets):
    positives, negatives = train_sets
    clf = TriggerEventClassifier("mergers_acquisitions")
    clf.fit(positives, negatives)
    record = classifier_to_dict(clf)
    del record["vectorizer"]["ngram_range"]
    loaded = classifier_from_dict(record)
    assert loaded.vectorizer.config.ngram_range == (1, 1)
    sample = positives[:3] + negatives[:3]
    assert np.array_equal(clf.score(sample), loaded.score(sample))


def test_unfitted_classifier_rejected(tmp_path):
    clf = TriggerEventClassifier("x")
    with pytest.raises(ValueError):
        save_classifier(clf, tmp_path / "x.json")


def test_unsupported_model_rejected(train_sets, tmp_path):
    class WeirdModel:
        def fit(self, X, y, sample_weight=None):
            return self

        def predict(self, X):
            return np.ones(X.shape[0], dtype=np.int64)

        def predict_proba(self, X):
            return np.tile([0.2, 0.8], (X.shape[0], 1))

    positives, negatives = train_sets
    clf = TriggerEventClassifier("x", classifier_factory=WeirdModel)
    clf.fit(positives, negatives)
    with pytest.raises(UnsupportedModelError):
        classifier_to_dict(clf)


def test_bad_format_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError):
        load_classifier(path)


def test_directory_roundtrip(train_sets, tmp_path):
    positives, negatives = train_sets
    classifiers = {}
    for driver_id in ("a_driver", "b_driver"):
        clf = TriggerEventClassifier(driver_id)
        clf.fit(positives, negatives)
        classifiers[driver_id] = clf

    written = save_classifiers(classifiers, tmp_path / "models")
    assert len(written) == 2
    loaded = load_classifiers(tmp_path / "models")
    assert set(loaded) == {"a_driver", "b_driver"}
    sample = positives[:2]
    for driver_id, clf in classifiers.items():
        assert np.allclose(
            clf.score(sample), loaded[driver_id].score(sample)
        )


class TestCheckpointStore:
    def test_keeps_the_newest_two_and_falls_back_to_the_older(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path)
        for checkpoint_id in range(1, 6):
            path = store.save(checkpoint_id, encode({"n": checkpoint_id}))
            assert path == store.path_of(checkpoint_id)
            assert store.checkpoint_ids() == list(
                range(max(1, checkpoint_id - 1), checkpoint_id + 1)
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-000004.json", "checkpoint-000005.json",
        ]
        # A torn newest file: recovery falls back to the one kept.
        store.path_of(5).write_text('{"format_version": 1, "checkpo')
        assert store.latest() == (4, {"n": 4})
        store.path_of(4).write_text("")
        assert store.latest() is None

    def test_a_rewritten_checkpoint_keeps_its_predecessor(self, tmp_path):
        """Resuming from an older checkpoint rewrites the ids after it;
        each save still leaves the one before it as the fallback."""
        store = CheckpointStore(tmp_path)
        for checkpoint_id in (1, 2, 3):
            store.save(checkpoint_id, encode({"n": checkpoint_id}))
        store.path_of(3).write_text("")
        store.save(3, encode({"n": 30}))
        assert store.checkpoint_ids() == [2, 3]
        assert store.latest() == (3, {"n": 30})
