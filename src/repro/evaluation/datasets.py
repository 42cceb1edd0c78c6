"""Experimental datasets mirroring section 5.1 of the paper.

The paper's setup: noisy positive data from five smart queries per driver
(top 200 documents each), a large random negative sample, a small
hand-labeled pure-positive set per driver, and a common test set of
72 M&A positives, 56 change-in-management positives and 2265 snippets
belonging to neither.  :func:`build_evaluation_dataset` reproduces that
setup over the synthetic web: the web itself feeds gathering/training,
and a disjoint held-out generation (different seed, distinct doc-id
namespace) supplies the labeled pure-positive and test snippets.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.etap import Etap, EtapConfig
from repro.core.snippets import Snippet, SnippetGenerator
from repro.core.training import AnnotatedSnippet
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)
from repro.corpus.web import build_web


@dataclass
class EvaluationDataset:
    """Everything an experiment needs, pre-annotated."""

    etap: Etap
    pure_positive: dict[str, list[AnnotatedSnippet]]
    test_items: list[AnnotatedSnippet]
    test_labels: dict[str, np.ndarray]

    def positives(self, driver_id: str) -> list[AnnotatedSnippet]:
        labels = self.test_labels[driver_id]
        return [
            item for item, label in zip(self.test_items, labels) if label
        ]


@dataclass(frozen=True)
class DatasetSpec:
    """Sizes for one experimental run (paper's numbers by default)."""

    n_web_docs: int = 3000
    n_pure_positive: int = 40
    n_test_positive_ma: int = 72
    n_test_positive_cim: int = 56
    n_test_positive_rg: int = 60
    n_test_negative: int = 2265
    seed: int = 7
    config: EtapConfig = field(default_factory=EtapConfig)
    #: Named fault profile (see :data:`repro.robustness.PROFILES`)
    #: injected into the gathering web; "none" keeps it failure-free.
    fault_profile: str = "none"

    @classmethod
    def small(cls) -> "DatasetSpec":
        """A fast profile for unit tests and smoke benches."""
        return cls(
            n_web_docs=600,
            n_pure_positive=15,
            n_test_positive_ma=20,
            n_test_positive_cim=20,
            n_test_positive_rg=20,
            n_test_negative=300,
            config=EtapConfig(
                top_k_per_query=60, negative_sample_size=1200
            ),
        )


_POSITIVE_DOC_TYPE = {
    MERGERS_ACQUISITIONS: "ma_news",
    CHANGE_IN_MANAGEMENT: "cim_news",
    REVENUE_GROWTH: "rg_news",
}
# Test negatives follow a plausible web mix: mostly off-topic pages,
# with business-flavoured near-positives (biographies, retrospectives,
# reviews) as the hard minority — the paper's 2265 negatives were random
# snippets "that did not belong to either of the two sales drivers".
# Mirrors the non-trigger portion of the default web mix, so the test
# negatives are a faithful random sample of "snippets that do not belong
# to either sales driver": mostly off-topic, with corporate boilerplate
# and the hard near-positive confusers (biographies, retrospectives) at
# their natural web density.
# Biographies and historical retrospectives — the paper's "misleading
# trigger events" — appear at their (low) natural density in a random
# sample of non-trigger snippets; they nevertheless account for most of
# the classifier's false positives, exactly as section 5.2 reports.
_NEGATIVE_MIX = {
    "company_profile": 0.535,
    "background": 0.27,
    "product_review": 0.175,
    "biography": 0.015,
    "retrospective": 0.005,
}


def _holdout_snippets(
    generator: CorpusGenerator,
    doc_type: str,
    windower: SnippetGenerator,
    wanted: int,
    keep,
    prefix: str,
) -> list[Snippet]:
    """Generate held-out docs of ``doc_type`` until ``wanted`` snippets
    satisfying ``keep`` have been collected."""
    collected: list[Snippet] = []
    guard = 0
    while len(collected) < wanted and guard < wanted * 40 + 200:
        guard += 1
        document = generator.generate_document(doc_type)
        document = dataclasses.replace(
            document, doc_id=f"{prefix}-{document.doc_id}"
        )
        for snippet in windower.from_document(document):
            if keep(snippet) and len(collected) < wanted:
                collected.append(snippet)
    if len(collected) < wanted:
        raise RuntimeError(
            f"could not collect {wanted} held-out snippets of {doc_type}"
        )
    return collected


def build_evaluation_dataset(
    spec: DatasetSpec | None = None,
) -> EvaluationDataset:
    """Construct the full section 5.1 experimental setup."""
    spec = spec or DatasetSpec()
    web = build_web(spec.n_web_docs, CorpusConfig(seed=spec.seed))
    if spec.fault_profile != "none":
        from repro.robustness import FaultyWeb, get_profile

        web = FaultyWeb(
            web, get_profile(spec.fault_profile), seed=spec.seed
        )
    etap = Etap.from_web(web, config=spec.config)
    etap.gather()

    holdout = CorpusGenerator(CorpusConfig(seed=spec.seed + 1000))
    windower = SnippetGenerator()

    def annotate(snippets: list[Snippet]) -> list[AnnotatedSnippet]:
        return [
            AnnotatedSnippet(snippet, engine=etap.text_engine)
            for snippet in snippets
        ]

    pure_positive: dict[str, list[AnnotatedSnippet]] = {}
    test_positive: dict[str, list[AnnotatedSnippet]] = {}
    wanted_test = {
        MERGERS_ACQUISITIONS: spec.n_test_positive_ma,
        CHANGE_IN_MANAGEMENT: spec.n_test_positive_cim,
        REVENUE_GROWTH: spec.n_test_positive_rg,
    }
    for driver_id, doc_type in _POSITIVE_DOC_TYPE.items():
        total = spec.n_pure_positive + wanted_test[driver_id]
        snippets = _holdout_snippets(
            holdout,
            doc_type,
            windower,
            total,
            keep=lambda s, d=driver_id: s.is_positive_for(d),
            prefix="holdout",
        )
        pure_positive[driver_id] = annotate(
            snippets[: spec.n_pure_positive]
        )
        test_positive[driver_id] = annotate(
            snippets[spec.n_pure_positive :]
        )

    rng = random.Random(spec.seed + 2000)
    negative_snippets: list[Snippet] = []
    for doc_type, fraction in _NEGATIVE_MIX.items():
        wanted = int(spec.n_test_negative * fraction) + 1
        negative_snippets.extend(
            _holdout_snippets(
                holdout,
                doc_type,
                windower,
                wanted,
                keep=lambda s: not s.true_drivers,
                prefix="holdneg",
            )
        )
    rng.shuffle(negative_snippets)
    test_negative = annotate(negative_snippets[: spec.n_test_negative])

    # Common test pool: all positives of every driver + shared negatives,
    # exactly the paper's "common test data for the classifiers".
    test_items: list[AnnotatedSnippet] = []
    for driver_id in _POSITIVE_DOC_TYPE:
        test_items.extend(test_positive[driver_id])
    test_items.extend(test_negative)

    test_labels = {
        driver_id: np.array(
            [
                1 if item.snippet.is_positive_for(driver_id) else 0
                for item in test_items
            ],
            dtype=np.int64,
        )
        for driver_id in _POSITIVE_DOC_TYPE
    }
    return EvaluationDataset(
        etap=etap,
        pure_positive=pure_positive,
        test_items=test_items,
        test_labels=test_labels,
    )
