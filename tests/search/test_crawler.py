"""Focused-crawler tests: budget, determinism, prioritization."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.corpus.web import FRONT_PAGE_URL, Page, SyntheticWeb
from repro.search.crawler import (
    CrawlResult,
    FocusedCrawler,
    business_relevance,
)


class TestCrawl:
    def test_respects_page_budget(self, small_web):
        crawler = FocusedCrawler(small_web, max_pages=25)
        result = crawler.crawl()
        assert len(result.pages) == 25

    def test_full_crawl_reaches_all_documents(self, small_web):
        crawler = FocusedCrawler(small_web, max_pages=10_000)
        result = crawler.crawl()
        fetched = {page.url for page in result.pages}
        for document in small_web.documents:
            assert document.url in fetched

    def test_no_page_fetched_twice(self, small_web):
        crawler = FocusedCrawler(small_web, max_pages=10_000)
        result = crawler.crawl()
        assert len(result.fetch_order) == len(set(result.fetch_order))

    def test_deterministic(self, small_web):
        a = FocusedCrawler(small_web, max_pages=100).crawl()
        b = FocusedCrawler(small_web, max_pages=100).crawl()
        assert a.fetch_order == b.fetch_order

    def test_depth_limit(self, small_web):
        # Depth 0 = only the seed.
        crawler = FocusedCrawler(small_web, max_pages=100, max_depth=0)
        result = crawler.crawl()
        assert result.fetch_order == [FRONT_PAGE_URL]

    def test_dead_seed_is_skipped(self, small_web):
        crawler = FocusedCrawler(small_web, max_pages=10)
        result = crawler.crawl(
            seeds=["http://dead.example.com/", FRONT_PAGE_URL]
        )
        assert result.skipped == 1
        assert result.pages

    def test_documents_property(self, small_web):
        result = FocusedCrawler(small_web, max_pages=200).crawl()
        assert all(doc is not None for doc in result.documents)

    def test_recrawl_of_unchanged_web_fetches_only_navigation(
        self, small_web
    ):
        crawler = FocusedCrawler(small_web, max_pages=10_000)
        first = crawler.crawl()
        second = crawler.crawl()
        assert second.fetch_order == [
            page.url for page in first.pages if page.document is None
        ]

    def test_navigation_priority_follows_the_current_page(self):
        quiet, busy = "http://a.example.com/", "http://b.example.com/"
        web = SyntheticWeb({}, nx.DiGraph())
        web.add_page(Page(quiet, "", "weather report", links=()))
        web.add_page(Page(busy, "", "merger acquired revenue", links=()))
        web.add_page(Page(FRONT_PAGE_URL, "", "", links=(quiet, busy)))
        crawler = FocusedCrawler(web)
        assert crawler.crawl().fetch_order == [FRONT_PAGE_URL, busy, quiet]
        # A hub's text changes as the web evolves; so does its priority.
        web.add_page(
            Page(quiet, "", "ceo appointed profit earnings growth", links=())
        )
        assert crawler.crawl().fetch_order == [FRONT_PAGE_URL, quiet, busy]

    def test_invalid_budget_rejected(self, small_web):
        with pytest.raises(ValueError):
            FocusedCrawler(small_web, max_pages=0)


class TestFocus:
    def test_business_pages_crawled_earlier_on_average(self, small_web):
        crawler = FocusedCrawler(small_web, max_pages=10_000)
        result = crawler.crawl()
        positions_business = []
        positions_other = []
        for position, page in enumerate(result.pages):
            if page.document is None:
                continue
            bucket = (
                positions_business
                if page.document.doc_type
                in ("ma_news", "cim_news", "rg_news")
                else positions_other
            )
            bucket.append(position)
        assert positions_business and positions_other
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(positions_business) < mean(positions_other)


class TestRelevanceScorer:
    def test_business_text_scores_higher(self, small_web):
        business = next(
            small_web.fetch(d.url)
            for d in small_web.documents
            if d.doc_type == "ma_news"
        )
        background = next(
            small_web.fetch(d.url)
            for d in small_web.documents
            if d.doc_type == "background"
        )
        assert business_relevance(business) > business_relevance(
            background
        )

    def test_empty_page_scores_zero(self):
        from repro.corpus.web import Page

        page = Page(url="u", title="", text="", links=())
        assert business_relevance(page) == 0.0
