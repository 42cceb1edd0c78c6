"""A crawler that skips settled pages equals one that replays them all.

:class:`ReplayCrawler` freezes the remembering crawler as it was before
settled pages: every crawl pushes every remembered page it reaches and
replays its links, and every navigation page is scored again on each
peek.  :class:`~repro.search.crawler.FocusedCrawler` leaves settled
pages (remembered pages that link only to settled pages) off the
frontier and reuses an unchanged navigation page's score.  Both must
fetch the same pages in the same order with the same provenance, skip
and fail the same URLs, and remember the same links, crawl after
crawl, on evolving webs, under content faults, with a binding budget
and with a binding depth limit.

The O(changed) guard counts the calls a re-crawl of an unchanged web
makes: no page is scored and the web is asked about each navigation
page a few times, not about every page.
"""

from __future__ import annotations

import heapq
import itertools

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.evolve import LATEST_HUB_URL, WebEvolver
from repro.corpus.generator import CorpusConfig, Document
from repro.corpus.web import FRONT_PAGE_URL, Page, SyntheticWeb, build_web
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.robustness.faults import FaultyWeb, get_profile
from repro.robustness.fetcher import ResilientFetcher
from repro.search.crawler import (
    CrawlResult,
    FocusedCrawler,
    business_relevance,
)


class ReplayCrawler(FocusedCrawler):
    """The remembering crawler that replays every remembered page."""

    def crawl(self, seeds=(FRONT_PAGE_URL,)) -> CrawlResult:
        result = CrawlResult()
        counter = itertools.count()  # tie-break to keep heap deterministic
        frontier: list[tuple[float, int, int, str, str | None]] = []
        seen: set[str] = set()
        for seed in seeds:
            if seed not in seen:
                seen.add(seed)
                heapq.heappush(
                    frontier, (0.0, next(counter), 0, seed, None)
                )

        with self.tracer.span("gather.crawl") as span:
            while frontier and len(result.pages) < self.max_pages:
                _, _, depth, url, via = heapq.heappop(frontier)
                if not self.web.has(url):
                    result.skipped += 1
                    continue
                links = self._remembered.get(url)
                if links is None:
                    page = self._fetch(url, result)
                    if page is None:
                        continue  # failed permanently; crawl around it
                    result.pages.append(page)
                    result.fetch_order.append(url)
                    doc_id = page.document.doc_id if page.document else None
                    self.tracer.emit(
                        "page_crawled",
                        lineage_id=doc_id,
                        url=url,
                        depth=depth,
                        via=via,
                        doc_id=doc_id,
                    )
                    links = page.links
                    if (
                        page.document is not None
                        and url not in result.degraded_urls
                    ):
                        self._remembered[url] = links
                if depth >= self.max_depth:
                    continue
                for link in links:
                    if link in seen:
                        continue
                    seen.add(link)
                    heapq.heappush(
                        frontier,
                        (self._priority(link), next(counter), depth + 1,
                         link, url),
                    )
            span.add_items(len(result.pages))
            self.tracer.count("crawl.pages_fetched", len(result.pages))
            self.tracer.count("crawl.dead_links_skipped", result.skipped)
            self.tracer.count("crawl.fetches_retried", result.retried)
            self.tracer.count("crawl.pages_failed", result.dead)
            self.tracer.count("crawl.pages_degraded", result.degraded)
        return result

    def _priority(self, url: str) -> float:
        priority = self._priorities.get(url)
        if priority is not None:
            return priority
        if not self.web.has(url):
            return 0.0
        page = self.web.peek(url)
        priority = -self.scorer(page)
        if page.document is not None:
            self._priorities[url] = priority
        return priority


def recorded(crawler_class, web, fetcher=None, **options):
    log = EventLog(capacity=1_000_000)
    crawler = crawler_class(
        web, tracer=Tracer(recorder=log), fetcher=fetcher, **options
    )
    return crawler, log


def crawl(crawler, log) -> dict:
    """Everything the two crawlers must agree on after one crawl."""
    start = log.total_emitted
    result = crawler.crawl()
    return {
        "fetch_order": result.fetch_order,
        "page_crawled": [
            (e.payload["url"], e.payload["depth"], e.payload["via"])
            for e in log.events("page_crawled")
            if e.seq >= start
        ],
        "skipped": result.skipped,
        "dead_urls": result.dead_urls,
        "degraded_urls": result.degraded_urls,
        "retried": result.retried,
        "remembered": dict(crawler._remembered),
    }


def world(crawler_class, n_docs, web_seed, profile, resilient, options):
    """A web, its evolver and a recorded crawler, all from the seeds."""
    web = build_web(n_docs, CorpusConfig(seed=web_seed))
    if profile is not None:
        web = FaultyWeb(web, get_profile(profile), seed=web_seed)
    fetcher = (
        ResilientFetcher(web, seed=web_seed)
        if resilient and profile is not None
        else None
    )
    crawler, log = recorded(crawler_class, web, fetcher, **options)
    evolver = WebEvolver(web, CorpusConfig(seed=web_seed + 1))
    return crawler, log, evolver


@settings(max_examples=24, deadline=None)
@given(
    n_docs=st.integers(min_value=40, max_value=120),
    web_seed=st.integers(min_value=0, max_value=10_000),
    profile=st.sampled_from([None, "lossy", "degraded", "flapping"]),
    resilient=st.booleans(),
    max_pages=st.sampled_from([10_000, 10_000, 5, 30, 80]),
    max_depth=st.sampled_from([6, 6, 1, 2, 3]),
    schedule=st.lists(
        st.integers(min_value=1, max_value=25), min_size=1, max_size=4
    ),
)
def test_skipping_settled_pages_changes_no_crawl(
    n_docs, web_seed, profile, resilient, max_pages, max_depth, schedule
):
    options = {"max_pages": max_pages, "max_depth": max_depth}
    new, new_log, new_evolver = world(
        FocusedCrawler, n_docs, web_seed, profile, resilient, options
    )
    old, old_log, old_evolver = world(
        ReplayCrawler, n_docs, web_seed, profile, resilient, options
    )
    for n_new in [0, 0, *schedule]:
        if n_new:
            new_evolver.advance(n_new)
            old_evolver.advance(n_new)
        assert crawl(new, new_log) == crawl(old, old_log)


def test_dangling_link_published_later():
    """A page linking to a missing URL stays pending until it exists."""
    url = "http://a.example.com/{}.html".format
    hub = url("index")

    def content(name: str, *links: str) -> Page:
        document = Document(
            doc_id=name, url=url(name), title=name, doc_type="background",
            sentences=(), companies=(),
        )
        return Page(
            url(name), name, "ceo merger",
            links=tuple(url(link) for link in links), document=document,
        )

    pairs = []
    for crawler_class in (FocusedCrawler, ReplayCrawler):
        web = SyntheticWeb({}, nx.DiGraph())
        for page in (
            Page(FRONT_PAGE_URL, "", "front", links=(hub,)),
            Page(hub, "", "hub", links=(url("a"), url("b"))),
            # a links to itself, to b (a cycle) and to the missing c;
            # d is linked to by nothing yet.
            content("a", "a", "b", "c"),
            content("b", "a"),
            content("d", "a"),
        ):
            web.add_page(page)
        pairs.append((web, *recorded(crawler_class, web)))

    def step() -> dict:
        got, want = (crawl(crawler, log) for _, crawler, log in pairs)
        assert got == want
        return got

    first = step()
    assert first["fetch_order"] == [FRONT_PAGE_URL, hub, url("a"), url("b")]
    assert first["skipped"] == 1
    # a links to the missing c, and b to a: both are replayed again.
    assert step()["skipped"] == 1
    for web, _, _ in pairs:
        web.add_page(content("c", "b", "d"))
    # c and then d are reached through a's replayed links.
    assert step()["fetch_order"] == [FRONT_PAGE_URL, hub, url("c"), url("d")]
    settled = step()
    assert settled["fetch_order"] == [FRONT_PAGE_URL, hub]
    assert settled["skipped"] == 0


class CountingWeb:
    """A web wrapper that counts ``has`` and ``peek`` calls."""

    def __init__(self, web: SyntheticWeb) -> None:
        self.inner = web
        self.calls = 0

    def has(self, url: str) -> bool:
        self.calls += 1
        return self.inner.has(url)

    def peek(self, url: str) -> Page:
        self.calls += 1
        return self.inner.peek(url)

    def fetch(self, url: str) -> Page:
        return self.inner.fetch(url)


def test_recrawl_of_an_unchanged_web_touches_navigation_only():
    inner = build_web(960, CorpusConfig(seed=9))  # 984 pages
    navigation = sum(1 for u in inner.urls if inner.peek(u).document is None)
    scored = []

    def scorer(page):
        scored.append(page.url)
        return business_relevance(page)

    web = CountingWeb(inner)
    crawler = FocusedCrawler(web, scorer=scorer, max_pages=10_000)
    first = crawler.crawl()
    assert len(first.fetch_order) == len(inner)

    for _ in range(2):
        scored.clear()
        web.calls = 0
        again = crawler.crawl()
        assert len(again.fetch_order) == navigation
        assert scored == []
        assert web.calls <= 3 * (navigation + 1)

    # After new pages appear, only they and the changed hub are scored.
    new_docs = WebEvolver(inner, CorpusConfig(seed=10)).advance(20)
    scored.clear()
    crawler.crawl()
    assert sorted(scored) == sorted(
        [doc.url for doc in new_docs] + [LATEST_HUB_URL]
    )
