"""The benchmark pipeline's result, pinned to the recorded value.

``benchmarks/ledger/run.py`` only gates that the pipeline ops of one run
agree with each other, so a change that moves every score alike would
pass it.  This module runs the pipeline workload's corpus (1,500 pages,
seed 7) through gather -> train -> extract -> ``company_report`` at one
and at two workers, and pins the result digest to the value that
``benchmarks/ledger/baseline.json`` records.  On the same run it checks
that snippet feature matrices equal the token path they are composed to
replace, on every noisy-positive, negative and extraction snippet.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.etap import Etap, EtapConfig
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.features.vectorizer import Vectorizer, VectorizerConfig
from tests.features.helpers import (
    assert_same_csr,
    reference_matrix,
    reference_vocabulary,
    snippet_tokens,
)

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"
PINNED_DIGEST = (
    "f6f2ca7add7350ed8b4f85c0c6bf8d0194a9fa0190d24fb6d0ff61ea50ce8378"
)
N_PAGES = 1500
SEED = 7


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "ledger_workloads", LEDGER / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def runs():
    result_digest = load_workloads().result_digest
    web = build_web(N_PAGES, CorpusConfig(seed=SEED))
    results = {}
    for workers in (1, 2):
        etap = Etap.from_web(web, config=EtapConfig(workers=workers))
        etap.gather()
        etap.train()
        events = etap.extract_trigger_events()
        leads = etap.company_report(events)
        results[workers] = (etap, result_digest(events, leads))
    return results


def test_the_baseline_records_the_pinned_digest():
    baseline = json.loads((LEDGER / "baseline.json").read_text())
    assert baseline["traced_seed_7"]["pipeline"]["info"]["digest"] == (
        PINNED_DIGEST
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_the_result_digest_is_pinned(runs, workers):
    assert runs[workers][1] == PINNED_DIGEST


def test_a_document_is_split_once_at_any_worker_count(runs):
    stats = {
        workers: etap.text_engine.stats_by_product()["sentences"]
        for workers, (etap, _) in runs.items()
    }
    assert stats[1].hits == stats[2].hits == N_PAGES
    # Two worker processes split every document; the parent splits none.
    assert stats[2].misses == 0


CONFIGS = (
    VectorizerConfig(min_df=2),
    VectorizerConfig(min_df=2, binary=True, ngram_range=(1, 2)),
    VectorizerConfig(max_features=300, ngram_range=(1, 2)),
    VectorizerConfig(min_df=3, binary=True, max_features=500),
)


def test_feature_matrices_equal_the_token_path(runs):
    etap, _ = runs[1]
    engine = etap.text_engine
    negatives = etap.training.negative_sample(
        etap.config.negative_sample_size
    )
    extraction = etap.snippet_items(etap.store.doc_ids())
    tokens_of: dict[tuple, list[str]] = {}

    def tokens(items, policy):
        listed = []
        for item in items:
            key = (policy, item.snippet.sentences)
            if key not in tokens_of:
                tokens_of[key] = snippet_tokens(
                    engine, item.snippet.sentences, policy
                )
            listed.append(tokens_of[key])
        return listed

    for driver in etap.drivers:
        noisy, _ = etap.training.noisy_positive(
            driver, top_k_per_query=etap.config.top_k_per_query
        )
        classifier = etap.classifiers[driver.driver_id]
        policy = classifier.policy
        sets = (noisy, negatives, extraction)
        references = [tokens(items, policy) for items in sets]
        for config in CONFIGS:
            vectorizer = Vectorizer(
                config, featurize=classifier.vectorizer.featurize
            )
            vectorizer.fit(
                [i.snippet.sentences for i in list(noisy) + negatives]
            )
            vocabulary = reference_vocabulary(
                references[0] + references[1], config
            )
            assert vectorizer.vocabulary == vocabulary
            for items, reference in zip(sets, references):
                assert_same_csr(
                    vectorizer.transform(
                        [item.snippet.sentences for item in items]
                    ),
                    reference_matrix(reference, vocabulary, config),
                )
