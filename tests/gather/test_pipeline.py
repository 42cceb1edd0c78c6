"""Data-gathering pipeline tests: crawl -> store -> index."""

from __future__ import annotations

import pytest

from repro.gather.pipeline import DataGatherer


@pytest.fixture(scope="module")
def gathered(small_web):
    gatherer = DataGatherer(small_web, max_pages=10_000)
    report = gatherer.gather()
    return gatherer, report


class TestGather:
    def test_all_articles_stored(self, gathered, small_web):
        gatherer, report = gathered
        assert report.documents_stored == len(small_web.documents)
        assert len(gatherer.store) == len(small_web.documents)

    def test_hub_pages_not_stored(self, gathered):
        gatherer, _ = gathered
        for document in gatherer.store:
            assert "index-" not in document.url

    def test_metadata_carries_doc_type(self, gathered):
        gatherer, _ = gathered
        document = next(iter(gatherer.store))
        assert "doc_type" in document.metadata

    def test_index_is_queryable(self, gathered):
        gatherer, _ = gathered
        hits = gatherer.engine.search('"new ceo"', top_k=10)
        assert hits

    def test_report_counts_consistent(self, gathered, small_web):
        _, report = gathered
        assert report.pages_fetched >= report.documents_stored
        assert report.duplicates_skipped == 0

    def test_page_budget_limits_store(self, small_web):
        gatherer = DataGatherer(small_web, max_pages=30)
        report = gatherer.gather()
        assert report.pages_fetched == 30
        assert len(gatherer.store) <= 30


class TestCrawlBudgetDefaults:
    """The direct-constructor path and ``Etap.from_web`` must agree on
    the default crawl budget (they used to be 5 000 vs 100 000)."""

    def test_default_matches_etap_config(self, small_web):
        from repro.core.etap import Etap
        from repro.gather.pipeline import DEFAULT_MAX_CRAWL_PAGES

        gatherer = DataGatherer(small_web)
        assert gatherer.max_pages == DEFAULT_MAX_CRAWL_PAGES
        assert Etap.from_web(small_web)._gatherer.max_pages == (
            DEFAULT_MAX_CRAWL_PAGES
        )

    def test_explicit_budget_still_honored(self, small_web):
        gatherer = DataGatherer(small_web, max_pages=25)
        report = gatherer.gather()
        assert gatherer.max_pages == 25
        assert report.pages_fetched <= 25


class TestIngestCacheCounters:
    """``ingest.cache_*`` count this gather's ingestion lookups once."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_only_this_gathers_lookups(self, monkeypatch, workers):
        from repro.corpus.evolve import WebEvolver
        from repro.corpus.generator import CorpusConfig
        from repro.corpus.web import build_web
        from repro.gather.ingest import ShardedIngester
        from repro.obs.tracer import Tracer
        from repro.text.engine import AnnotationEngine

        results = []
        ingest = ShardedIngester.ingest

        def spy(self, store, accepted):
            results.append(ingest(self, store, accepted))
            return results[-1]

        monkeypatch.setattr(ShardedIngester, "ingest", spy)
        web = build_web(120, CorpusConfig(seed=3))
        tracer = Tracer()
        gatherer = DataGatherer(
            web, tracer=tracer, text_engine=AnnotationEngine(),
            workers=workers,
        )
        gatherer.gather()
        [result] = results
        counters = tracer.registry.counters
        assert counters["ingest.cache_hits"] == result.sentence_hits
        assert counters["ingest.cache_misses"] == result.sentence_misses

        # Lookups made outside ingestion (training annotates snippets
        # through the same engine) must not leak into the counters.
        for document in list(gatherer.store)[:20]:
            gatherer.text_engine.annotate(document.text)
        before = dict(tracer.registry.counters)
        report = gatherer.gather()
        assert report.documents_stored == 0
        after = tracer.registry.counters
        for name in ("ingest.cache_hits", "ingest.cache_misses"):
            assert after[name] == before[name]

        # A re-gather that stores new documents counts their lookups.
        WebEvolver(web, CorpusConfig(seed=4)).advance(10)
        report = gatherer.gather()
        assert report.documents_stored > 0
        grown = tracer.registry.counters
        assert (
            grown["ingest.cache_hits"] + grown["ingest.cache_misses"]
            > before["ingest.cache_hits"] + before["ingest.cache_misses"]
        )
