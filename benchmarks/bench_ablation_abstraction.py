"""Ablation — feature abstraction on vs off (section 3.2 motivation).

The paper argues entity abstraction generalizes ("potentially any
ORGANIZATION could make a profit of CURRENCY") and shrinks the model.
This bench trains the M&A classifier twice — with the paper's policy and
with plain bag-of-words — and compares feature counts and test F1.

Expected shape: abstraction reduces the feature space substantially at
equal-or-better F1.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import TriggerEventClassifier
from repro.core.drivers import get_driver
from repro.corpus.templates import MERGERS_ACQUISITIONS
from repro.features.abstraction import AbstractionPolicy
from repro.ml.metrics import precision_recall_f1


def _train_and_eval(dataset, policy):
    etap = dataset.etap
    driver = get_driver(MERGERS_ACQUISITIONS)
    noisy, _ = etap.training.noisy_positive(
        driver, top_k_per_query=etap.config.top_k_per_query
    )
    negatives = etap.training.negative_sample(
        etap.config.negative_sample_size
    )
    classifier = TriggerEventClassifier(
        MERGERS_ACQUISITIONS, policy=policy, text_engine=etap.text_engine
    )
    classifier.fit(
        noisy, negatives,
        pure_positive=dataset.pure_positive[MERGERS_ACQUISITIONS],
    )
    predictions = classifier.predict(dataset.test_items)
    measured = precision_recall_f1(
        dataset.test_labels[MERGERS_ACQUISITIONS], predictions
    )
    return classifier.summary.n_features, measured


def bench_abstraction_ablation(benchmark, medium_dataset):
    def run():
        return {
            "paper (abstract entities)": _train_and_eval(
                medium_dataset, AbstractionPolicy.paper_default()
            ),
            "none (plain bag-of-words)": _train_and_eval(
                medium_dataset, AbstractionPolicy.none()
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"{'Policy':28s} {'Features':>9s} {'P':>6s} {'R':>6s} "
          f"{'F1':>6s}")
    for name, (n_features, measured) in results.items():
        print(
            f"{name:28s} {n_features:9d} {measured.precision:6.3f} "
            f"{measured.recall:6.3f} {measured.f1:6.3f}"
        )

    abstracted_features, abstracted = results[
        "paper (abstract entities)"
    ]
    plain_features, plain = results["none (plain bag-of-words)"]
    # Abstraction's first promise: far fewer model parameters.
    assert abstracted_features < plain_features * 0.8
    # Its second promise: generalization does not cost accuracy.
    assert abstracted.f1 >= plain.f1 - 0.05
    benchmark.extra_info["feature_reduction"] = round(
        1 - abstracted_features / plain_features, 3
    )
