"""Re-crawls under faults: only healthy content pages are remembered.

:class:`~repro.search.crawler.FocusedCrawler` replays the links of
content pages it fetched healthy instead of fetching them again.  A
page that failed permanently or came back degraded (truncated text,
truncated links) was never fetched healthy, so it must stay eligible:
the next crawl fetches it again, and its truncated links are never
replayed from memory.

Navigation pages are made immune to faults here, so both crawls reach
the same content pages and every difference comes from the pages
themselves.
"""

from __future__ import annotations

import pytest

from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.robustness.faults import FaultProfile, FaultyWeb
from repro.robustness.fetcher import ResilientFetcher
from repro.search.crawler import FocusedCrawler

PROFILE = FaultProfile(
    name="dead-and-degraded",
    dead_rate=0.15,
    truncate_rate=0.15,
    garble_rate=0.10,
    lossy=True,
)


@pytest.fixture(params=["plain", "resilient"])
def crawler(request) -> FocusedCrawler:
    inner = build_web(150, CorpusConfig(seed=21))
    navigation = frozenset(
        url for url in inner.urls if inner.fetch(url).document is None
    )
    web = FaultyWeb(inner, PROFILE, seed=3, immune=navigation)
    fetcher = (
        ResilientFetcher(web, seed=web.seed)
        if request.param == "resilient"
        else None
    )
    return FocusedCrawler(web, max_pages=10_000, fetcher=fetcher)


def test_dead_and_degraded_pages_are_fetched_again(crawler):
    first = crawler.crawl()
    unhealthy = first.dead_urls | first.degraded_urls
    assert first.dead_urls and first.degraded_urls

    second = crawler.crawl()
    content = {
        url for url in second.fetch_order
        if crawler.web.peek(url).document is not None
    }
    # The web did not change: the re-crawl fetches the navigation
    # pages and retries exactly the pages that were not healthy.
    assert content | second.dead_urls == unhealthy
    assert second.degraded_urls == first.degraded_urls
    assert second.dead_urls == first.dead_urls


def test_degraded_links_are_never_remembered(crawler):
    first = crawler.crawl()
    degraded = first.degraded_urls
    truncated = [
        url for url in degraded
        if crawler.web.plan_of(url).truncated
        and crawler.web.peek(url).links
    ]
    assert truncated, "no degraded page had links to truncate"
    for _ in range(2):
        assert not degraded & crawler._remembered.keys()
        assert degraded <= set(crawler.crawl().fetch_order)
