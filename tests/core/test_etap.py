"""ETAP facade integration tests (gather -> train -> extract -> rank)."""

from __future__ import annotations

import pytest

from repro.core.etap import Etap, EtapConfig
from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    MERGERS_ACQUISITIONS,
    REVENUE_GROWTH,
)


class TestLifecycle:
    def test_train_before_gather_rejected(self, small_web):
        etap = Etap.from_web(small_web)
        with pytest.raises(RuntimeError):
            etap.train()

    def test_extract_before_train_rejected(self, small_web):
        etap = Etap.from_web(small_web)
        etap.gather()
        with pytest.raises(RuntimeError):
            etap.extract_trigger_events()

    def test_gather_requires_web(self, trained_etap):
        from repro.core.etap import Etap as EtapClass
        from repro.gather.store import DocumentStore
        from repro.search.engine import SearchEngine

        etap = EtapClass(DocumentStore(), SearchEngine())
        with pytest.raises(RuntimeError):
            etap.gather()

    def test_unknown_driver_lookup(self, trained_etap):
        with pytest.raises(KeyError):
            trained_etap.score_snippets("steel_production", [])


class TestTrainedPipeline:
    def test_classifier_per_driver(self, trained_etap):
        assert set(trained_etap.classifiers) == {
            MERGERS_ACQUISITIONS, CHANGE_IN_MANAGEMENT, REVENUE_GROWTH,
        }

    def test_noisy_reports_recorded(self, trained_etap):
        for report in trained_etap.noisy_reports.values():
            assert report.snippets_kept > 0

    def test_extraction_returns_ranked_events(self, trained_etap):
        events = trained_etap.extract_trigger_events()
        for driver_id, driver_events in events.items():
            assert driver_events, driver_id
            ranks = [e.rank for e in driver_events]
            assert ranks == list(range(1, len(ranks) + 1))
            scores = [e.score for e in driver_events]
            assert scores == sorted(scores, reverse=True)

    def test_extraction_threshold_monotone(self, trained_etap):
        loose = trained_etap.extract_trigger_events(threshold=0.5)
        strict = trained_etap.extract_trigger_events(threshold=0.95)
        for driver_id in loose:
            assert len(strict[driver_id]) <= len(loose[driver_id])

    def test_most_extracted_events_are_genuine(
        self, trained_etap, small_dataset
    ):
        # Precision over the store's ground truth: extracted snippets
        # should be mostly real trigger events.
        events = trained_etap.extract_trigger_events()
        by_id = {
            d.doc_id: d.metadata["doc_type"]
            for d in trained_etap.store
        }
        expected_type = {
            MERGERS_ACQUISITIONS: "ma_news",
            CHANGE_IN_MANAGEMENT: "cim_news",
            REVENUE_GROWTH: "rg_news",
        }
        for driver_id, driver_events in events.items():
            good = sum(
                by_id[e.item.snippet.doc_id] == expected_type[driver_id]
                for e in driver_events
            )
            # The small-profile corpus carries proportionally more
            # biography/retrospective confusers than the full one, so
            # the bound here is looser than the benches' >= 0.5.
            assert good / len(driver_events) >= 0.4, driver_id

    def test_company_report(self, trained_etap):
        events = trained_etap.extract_trigger_events()
        report = trained_etap.company_report(events)
        assert report
        assert report[0].mrr >= report[-1].mrr
        assert all(s.n_trigger_events >= 1 for s in report)

    def test_semantic_orientation_reranking(self, trained_etap):
        events = trained_etap.extract_trigger_events()
        reranked = trained_etap.rank_by_semantic_orientation(
            events[REVENUE_GROWTH]
        )
        assert len(reranked) == len(events[REVENUE_GROWTH])
        magnitudes = [abs(e.score) for e in reranked]
        assert magnitudes == sorted(magnitudes, reverse=True)


class TestConfig:
    def test_defaults_match_paper(self, small_web):
        config = EtapConfig()
        assert config.top_k_per_query == 200  # top 200 documents
        etap = Etap.from_web(small_web)
        assert etap.training.snippets.window == 3  # n = 3 (section 3.1)


class TestSinceDayFreshnessWindow:
    """Regression: documents without ``published_day`` metadata must not
    be dropped by ``extract_trigger_events(since_day=...)``."""

    @pytest.fixture(scope="class")
    def dated_etap(self):
        from repro.corpus.generator import CorpusConfig
        from repro.corpus.web import build_web

        web = build_web(150, CorpusConfig(seed=5))
        etap = Etap.from_web(
            web,
            config=EtapConfig(
                top_k_per_query=40, negative_sample_size=400
            ),
        )
        etap.gather()
        etap.train()
        # Strip the publication date from every other stored document,
        # simulating sources that carry no date metadata.
        stripped = set(etap.store.doc_ids()[::2])
        for doc_id in stripped:
            etap.store.get(doc_id).metadata.pop("published_day", None)
        return etap, stripped

    def test_undated_documents_survive_any_horizon(self, dated_etap):
        etap, stripped = dated_etap
        # A horizon later than every simulated publication day: only
        # undated documents can pass the filter.
        events = etap.extract_trigger_events(since_day=10**9)
        flagged_docs = {
            event.item.snippet.doc_id
            for driver_events in events.values()
            for event in driver_events
        }
        assert flagged_docs, "undated documents were dropped"
        assert flagged_docs <= stripped

    def test_horizon_zero_keeps_everything(self, dated_etap):
        etap, _ = dated_etap
        unrestricted = etap.extract_trigger_events()
        horizon_zero = etap.extract_trigger_events(since_day=0)
        assert {
            driver: [e.snippet_id for e in evs]
            for driver, evs in unrestricted.items()
        } == {
            driver: [e.snippet_id for e in evs]
            for driver, evs in horizon_zero.items()
        }

    def test_future_horizon_restricts_dated_documents(self, dated_etap):
        etap, stripped = dated_etap
        unrestricted = etap.extract_trigger_events()
        restricted = etap.extract_trigger_events(since_day=10**9)
        n_unrestricted = sum(len(e) for e in unrestricted.values())
        n_restricted = sum(len(e) for e in restricted.values())
        assert n_restricted < n_unrestricted


class TestProvenanceKeys:
    """Satellite pin: extracted events join back to the store by URL."""

    def test_extracted_events_carry_store_urls(self, trained_etap):
        events = trained_etap.extract_trigger_events()
        checked = 0
        for driver_events in events.values():
            for event in driver_events:
                assert event.url == trained_etap.store.get(
                    event.doc_id
                ).url
                checked += 1
        assert checked > 0

    def test_url_of_unknown_doc_is_empty(self, trained_etap):
        assert trained_etap.url_of("no-such-doc") == ""
