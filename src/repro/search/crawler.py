"""Focused crawler over the synthetic web (eShopMonitor substitute).

The paper's data-gathering component [2] performs a *focused* crawl: it
prioritizes links likely to lead to business-relevant pages.  This
crawler implements best-first frontier expansion with a pluggable page
scorer, plus politeness-style bounds (page budget, depth limit) so crawls
terminate predictably.

eShopMonitor is a *monitor*: it watches the web and hands on what is
new.  So a :class:`FocusedCrawler` remembers, across :meth:`crawl`
calls, the outlinks of every content page (one with a ``document``) it
fetched healthy, plus the link priority of every content page it
peeked.  Content pages are treated as immutable once fetched healthy:
a re-crawl walks the same best-first traversal but *replays* a
remembered page's links instead of fetching it.  Only navigation pages
(the front page and hubs, which change as the web evolves), pages never
fetched healthy (new ones included) and pages that were dead or
degraded last time are fetched again.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.corpus.web import FRONT_PAGE_URL, Page, SyntheticWeb
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.robustness.faults import FetchError
from repro.robustness.fetcher import ResilientFetcher

#: Scores a fetched page; higher means expand its links sooner.
PageScorer = Callable[[Page], float]

#: Keywords whose presence marks a page as business-relevant.
BUSINESS_KEYWORDS = frozenset(
    """acquire acquired acquisition merger merged ceo cto cfo president
    revenue profit earnings quarter appointed named chairman growth
    income company shares""".split()
)


def business_relevance(page: Page) -> float:
    """Fraction of business keywords present in the page text."""
    words = {word.lower().strip(".,") for word in page.text.split()}
    if not words:
        return 0.0
    hits = len(BUSINESS_KEYWORDS & words)
    return hits / len(BUSINESS_KEYWORDS)


@dataclass
class CrawlResult:
    """Outcome of one crawl, including how it degraded under faults."""

    pages: list[Page] = field(default_factory=list)
    fetch_order: list[str] = field(default_factory=list)
    #: Frontier URLs that were never on the web (graph-only links).
    skipped: int = 0
    #: Total retry attempts spent recovering transient failures.
    retried: int = 0
    #: URLs that permanently failed (dead links, retry exhaustion,
    #: open circuit breakers) and were crawled *around*.
    dead: int = 0
    #: Pages served in degraded (truncated/garbled) form.
    degraded: int = 0
    degraded_urls: set[str] = field(default_factory=set)
    dead_urls: set[str] = field(default_factory=set)

    @property
    def documents(self):
        return [page.document for page in self.pages if page.document]


class FocusedCrawler:
    """Best-first crawler with a page budget and depth limit.

    One instance is one monitor: its remembered content pages (see the
    module docstring) persist across :meth:`crawl` calls, so a second
    crawl of an evolved web fetches only what may have changed.  A
    fresh instance crawls from scratch.
    """

    def __init__(
        self,
        web: SyntheticWeb,
        scorer: PageScorer = business_relevance,
        max_pages: int = 500,
        max_depth: int = 6,
        tracer: AnyTracer | None = None,
        fetcher: ResilientFetcher | None = None,
    ) -> None:
        if max_pages <= 0:
            raise ValueError("max_pages must be positive")
        self.web = web
        self.scorer = scorer
        self.max_pages = max_pages
        self.max_depth = max_depth
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: When set, all fetches go through the resilient path
        #: (retries, circuit breaking, dead-lettering).
        self.fetcher = fetcher
        #: Outlinks of each content page fetched healthy, by URL.
        self._remembered: dict[str, tuple[str, ...]] = {}
        #: Link priority of each content page peeked, by URL.
        self._priorities: dict[str, float] = {}

    def crawl(
        self, seeds: Iterable[str] = (FRONT_PAGE_URL,)
    ) -> CrawlResult:
        """Crawl from ``seeds``, expanding highest-scoring pages first.

        A remembered content page is not fetched, not appended to
        ``pages`` and emits no ``page_crawled`` event; its remembered
        links are pushed in its place.  So fetch order, depth and
        ``via`` equal a from-scratch crawl's restricted to the fetched
        pages, and ``max_pages`` counts fetches only.
        """
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
        """Frontier priority of ``url``: its negated score, lowest first.

        Peeks at the target; a real crawler would rank by anchor text,
        we rank by the page itself.  Content pages never change, so
        their priority is computed once per crawler.
        """
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

    def _fetch(self, url: str, result: CrawlResult) -> Page | None:
        """One fetch on the resilient (or plain) path.

        Returns ``None`` for a permanent failure — the crawl records it
        and moves on instead of crashing, so a web full of dead links
        and flapping hosts still yields every reachable page.
        """
        if self.fetcher is not None:
            outcome = self.fetcher.fetch(url)
            result.retried += outcome.retries
            if outcome.page is None:
                result.dead += 1
                result.dead_urls.add(url)
                return None
            if outcome.status == "degraded":
                result.degraded += 1
                result.degraded_urls.add(url)
            return outcome.page
        try:
            page = self.web.fetch(url)
        except FetchError:
            # A faulty web without a resilient fetcher: no retries, but
            # the crawl still completes around the failure.
            result.dead += 1
            result.dead_urls.add(url)
            return None
        is_degraded = getattr(self.web, "is_degraded", None)
        if is_degraded is not None and is_degraded(url):
            result.degraded += 1
            result.degraded_urls.add(url)
        return page
