"""Ablation — unigram vs unigram+bigram features.

Bigrams capture multiword signals ("definitive merger", "stepped down")
at the cost of a much larger model.  The paper uses unigrams (plus
entity placeholders); this bench quantifies what bigrams would add.
"""

from __future__ import annotations

from repro.core.classifier import TriggerEventClassifier
from repro.core.drivers import get_driver
from repro.corpus.templates import CHANGE_IN_MANAGEMENT
from repro.features.vectorizer import VectorizerConfig
from repro.ml.metrics import precision_recall_f1

SETTINGS = {
    "unigrams (paper)": (1, 1),
    "unigrams+bigrams": (1, 2),
}


def bench_ngram_ablation(benchmark, medium_dataset):
    etap = medium_dataset.etap
    driver = get_driver(CHANGE_IN_MANAGEMENT)
    noisy, _ = etap.training.noisy_positive(
        driver, top_k_per_query=etap.config.top_k_per_query
    )
    negatives = etap.training.negative_sample(
        etap.config.negative_sample_size
    )
    pure = medium_dataset.pure_positive[CHANGE_IN_MANAGEMENT]
    labels = medium_dataset.test_labels[CHANGE_IN_MANAGEMENT]

    def run():
        results = {}
        for name, ngram_range in SETTINGS.items():
            classifier = TriggerEventClassifier(
                CHANGE_IN_MANAGEMENT,
                vectorizer_config=VectorizerConfig(
                    min_df=2, ngram_range=ngram_range
                ),
                text_engine=etap.text_engine,
            )
            classifier.fit(noisy, negatives, pure_positive=pure)
            predictions = classifier.predict(medium_dataset.test_items)
            results[name] = (
                classifier.summary.n_features,
                precision_recall_f1(labels, predictions),
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"{'Features':20s} {'count':>7s} {'P':>6s} {'R':>6s} "
          f"{'F1':>6s}")
    for name, (n_features, measured) in results.items():
        print(f"{name:20s} {n_features:7d} {measured.precision:6.3f} "
              f"{measured.recall:6.3f} {measured.f1:6.3f}")

    uni_features, uni = results["unigrams (paper)"]
    bi_features, bi = results["unigrams+bigrams"]
    assert bi_features > uni_features  # bigrams inflate the model
    # Neither representation collapses: both stay useful.
    assert min(uni.f1, bi.f1) >= 0.5
    benchmark.extra_info["unigram_f1"] = round(uni.f1, 3)
    benchmark.extra_info["bigram_f1"] = round(bi.f1, 3)
