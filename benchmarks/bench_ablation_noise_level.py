"""Ablation — smart queries vs naive queries (section 3.3.1).

The paper motivates smart queries with the observation that the naive
query "mergers and acquisitions" returns "many documents that do not
contain instances of mergers and acquisitions".  This bench builds the
noisy-positive set both ways and compares (a) the purity of the noisy
set against ground truth and (b) the downstream F1.
"""

from __future__ import annotations

import dataclasses

from repro.core.classifier import TriggerEventClassifier
from repro.core.drivers import get_driver
from repro.corpus.templates import MERGERS_ACQUISITIONS
from repro.ml.metrics import precision_recall_f1

NAIVE_QUERIES = (
    "mergers and acquisitions",
    "company acquisition news",
    "business deals",
    "corporate merger",
    "companies combining",
)


def _purity(etap, items):
    by_id = {d.doc_id: d.metadata["doc_type"] for d in etap.store}
    if not items:
        return 0.0
    genuine = sum(
        by_id[item.snippet.doc_id] == "ma_news" for item in items
    )
    return genuine / len(items)


def bench_query_noise_level(benchmark, medium_dataset):
    etap = medium_dataset.etap
    smart_driver = get_driver(MERGERS_ACQUISITIONS)
    naive_driver = dataclasses.replace(
        smart_driver, smart_queries=NAIVE_QUERIES
    )
    negatives = etap.training.negative_sample(
        etap.config.negative_sample_size
    )
    pure = medium_dataset.pure_positive[MERGERS_ACQUISITIONS]
    labels = medium_dataset.test_labels[MERGERS_ACQUISITIONS]

    def evaluate(driver):
        noisy, report = etap.training.noisy_positive(
            driver, top_k_per_query=etap.config.top_k_per_query
        )
        classifier = TriggerEventClassifier(
            MERGERS_ACQUISITIONS, text_engine=etap.text_engine
        )
        classifier.fit(noisy, negatives, pure_positive=pure)
        predictions = classifier.predict(medium_dataset.test_items)
        return {
            "purity": _purity(etap, noisy),
            "kept": report.snippets_kept,
            "prf": precision_recall_f1(labels, predictions),
        }

    def run():
        return {
            "smart (phrase queries)": evaluate(smart_driver),
            "naive (keyword queries)": evaluate(naive_driver),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(f"{'Query style':26s} {'kept':>6s} {'purity':>7s} "
          f"{'P':>6s} {'R':>6s} {'F1':>6s}")
    for name, r in results.items():
        prf = r["prf"]
        print(f"{name:26s} {r['kept']:6d} {r['purity']:7.3f} "
              f"{prf.precision:6.3f} {prf.recall:6.3f} {prf.f1:6.3f}")

    smart = results["smart (phrase queries)"]
    naive = results["naive (keyword queries)"]
    # The paper's claim: smart queries yield a cleaner noisy-positive
    # set than naive keyword queries.
    assert smart["purity"] >= naive["purity"]
    benchmark.extra_info["smart_purity"] = round(smart["purity"], 3)
    benchmark.extra_info["naive_purity"] = round(naive["purity"], 3)
