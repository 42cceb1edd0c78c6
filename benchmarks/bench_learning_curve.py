"""Extension bench — learning curve over noisy-training-data volume.

The paper gathers the top 200 documents per smart query; this bench
sweeps that budget (10 -> 100 documents per query) and measures the
change-in-management F1, showing how much automatically generated
training data the method actually needs.
"""

from __future__ import annotations

from repro.core.classifier import TriggerEventClassifier
from repro.core.drivers import get_driver
from repro.corpus.templates import CHANGE_IN_MANAGEMENT
from repro.ml.metrics import precision_recall_f1

# Phrase queries saturate quickly on the medium corpus (every matching
# document is already in the top handful), so the sweep starts at a
# single document per query to expose the low-data regime.
BUDGETS = (1, 2, 5, 20)


def bench_learning_curve(benchmark, medium_dataset):
    etap = medium_dataset.etap
    driver = get_driver(CHANGE_IN_MANAGEMENT)
    negatives = etap.training.negative_sample(
        etap.config.negative_sample_size
    )
    pure = medium_dataset.pure_positive[CHANGE_IN_MANAGEMENT]
    labels = medium_dataset.test_labels[CHANGE_IN_MANAGEMENT]

    def run():
        results = {}
        for budget in BUDGETS:
            noisy, report = etap.training.noisy_positive(
                driver, top_k_per_query=budget
            )
            classifier = TriggerEventClassifier(
                CHANGE_IN_MANAGEMENT, text_engine=etap.text_engine
            )
            classifier.fit(noisy, negatives, pure_positive=pure)
            predictions = classifier.predict(medium_dataset.test_items)
            results[budget] = (
                report.snippets_kept,
                precision_recall_f1(labels, predictions),
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"{'docs/query':>10s} {'noisy+':>7s} {'P':>6s} {'R':>6s} "
          f"{'F1':>6s}")
    for budget, (kept, measured) in results.items():
        print(f"{budget:10d} {kept:7d} {measured.precision:6.3f} "
              f"{measured.recall:6.3f} {measured.f1:6.3f}")

    f1 = {b: m.f1 for b, (_, m) in results.items()}
    # More automatically generated training data never hurts much:
    # the largest budget is within 0.05 F1 of the best observed.  (On
    # the templated corpus the curve saturates almost immediately —
    # filtered smart-query snippets are highly redundant, so even a
    # single document per query carries most of the signal.)
    assert f1[max(BUDGETS)] >= max(f1.values()) - 0.05
    # Training-set size grows with budget.
    assert results[max(BUDGETS)][0] >= results[min(BUDGETS)][0]
    benchmark.extra_info["f1_by_budget"] = {
        str(b): round(v, 3) for b, v in f1.items()
    }