"""Ablation — classifier family (section 3.3.2).

"Alternatively, any one of the proposed methods of learning classifiers
in the presence of noise can be used."  This bench swaps the inner model
of the iterative denoiser: multinomial NB (the paper's choice),
Bernoulli NB, and the linear SVM, plus the Lee-Liu weighted logistic
regression trained directly on positive + unlabeled data.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import TriggerEventClassifier
from repro.core.drivers import get_driver
from repro.corpus.templates import MERGERS_ACQUISITIONS
from repro.ml.logreg import fit_pu_weighted
from repro.ml.metrics import precision_recall_f1
from repro.ml.ensemble import VotingEnsemble
from repro.ml.naive_bayes import BernoulliNaiveBayes, MultinomialNaiveBayes
from repro.ml.svm import LinearSvm

FACTORIES = {
    "multinomial NB (paper)": MultinomialNaiveBayes,
    "bernoulli NB": BernoulliNaiveBayes,
    "linear SVM (Pegasos)": lambda: LinearSvm(epochs=3),
    "voting ensemble": VotingEnsemble,
}


def bench_classifier_families(benchmark, medium_dataset):
    etap = medium_dataset.etap
    driver = get_driver(MERGERS_ACQUISITIONS)
    noisy, _ = etap.training.noisy_positive(
        driver, top_k_per_query=etap.config.top_k_per_query
    )
    negatives = etap.training.negative_sample(
        etap.config.negative_sample_size
    )
    pure = medium_dataset.pure_positive[MERGERS_ACQUISITIONS]
    labels = medium_dataset.test_labels[MERGERS_ACQUISITIONS]

    def run():
        results = {}
        for name, factory in FACTORIES.items():
            classifier = TriggerEventClassifier(
                MERGERS_ACQUISITIONS,
                classifier_factory=factory,
                text_engine=etap.text_engine,
            )
            classifier.fit(noisy, negatives, pure_positive=pure)
            predictions = classifier.predict(medium_dataset.test_items)
            results[name] = precision_recall_f1(labels, predictions)

        # Lee & Liu weighted LR (PU learning, no denoising loop).
        reference = TriggerEventClassifier(
            MERGERS_ACQUISITIONS, text_engine=etap.text_engine
        )
        reference.fit(noisy, negatives, pure_positive=pure)
        X_pos = reference.vectorizer.transform(
            [item.snippet.sentences for item in list(noisy) + list(pure)]
        )
        X_unlabeled = reference.vectorizer.transform(
            [item.snippet.sentences for item in negatives]
        )
        model = fit_pu_weighted(X_pos, X_unlabeled, unlabeled_weight=0.7)
        X_test = reference.vectorizer.transform(
            [item.snippet.sentences for item in medium_dataset.test_items]
        )
        results["weighted LR (Lee-Liu PU)"] = precision_recall_f1(
            labels, model.predict(X_test)
        )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"{'Classifier':26s} {'P':>6s} {'R':>6s} {'F1':>6s}")
    for name, measured in results.items():
        print(f"{name:26s} {measured.precision:6.3f} "
              f"{measured.recall:6.3f} {measured.f1:6.3f}")

    # Every noise-tolerant family must beat the all-positive baseline...
    baseline_p = float(np.mean(labels))
    baseline_f1 = 2 * baseline_p / (1 + baseline_p)
    for name, measured in results.items():
        assert measured.f1 > baseline_f1, name
    # ...and the paper's NB choice must be competitive: within 0.2 F1
    # of the best (the SVM-bearing ensemble leads on this corpus, but
    # NB's gap stays modest — the paper's "any noise-tolerant learner
    # works" claim, not "NB is optimal").
    best = max(m.f1 for m in results.values())
    assert results["multinomial NB (paper)"].f1 >= best - 0.2
