"""Focused crawler over the synthetic web (eShopMonitor substitute).

The paper's data-gathering component [2] performs a *focused* crawl: it
prioritizes links likely to lead to business-relevant pages.  This
crawler implements best-first frontier expansion with a pluggable page
scorer, plus politeness-style bounds (page budget, depth limit) so crawls
terminate predictably.

eShopMonitor is a *monitor*: it watches the web and hands on what is
new, so an alert poll should cost about what changed.  A
:class:`FocusedCrawler` remembers, across :meth:`crawl` calls, the
outlinks of every content page (one with a ``document``) it fetched
healthy, plus the link priority of every page it peeked.  Content
pages are treated as immutable once fetched healthy: a re-crawl walks
the same best-first traversal but *replays* a remembered page's links
instead of fetching it.  Only navigation pages (the front page and
hubs, which change as the web evolves), pages never fetched healthy
(new ones included) and pages that were dead or degraded last time are
fetched again.  A navigation page is re-scored only when the web
serves a new ``Page`` object for it.

Most remembered pages need not even be replayed.  A remembered page is
*settled* when every page it links to is a settled remembered page
(the greatest such set, so cycles settle too).  A settled page can
never be the first to reach a page that is unsettled, missing or
fetchable, so leaving settled pages off the frontier changes neither
the pop order, depth and ``via`` of any other page nor the budget,
which counts fetches only.  Pages are never removed from the web and
remembered links never change, so a page once settled stays settled;
each crawl settles what it can among the pages still pending.  A re-crawl
of an unchanged web thus touches the navigation pages only.
"""

from __future__ import annotations

import heapq
import itertools
import re
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


#: A whitespace-delimited word that is a business keyword once
#: lowercased and stripped of leading and trailing ``.`` and ``,``.
_KEYWORD_WORD = re.compile(
    r"\s[.,]*(" + "|".join(sorted(BUSINESS_KEYWORDS)) + r")[.,]*(?=\s)"
)


def business_relevance(page: Page) -> float:
    """Fraction of business keywords present in the page text.

    One regex pass over the lowercased text, padded with spaces so the
    first and last words have whitespace around them too.
    """
    found = _KEYWORD_WORD.findall(f" {page.text.lower()} ")
    return len(set(found)) / len(BUSINESS_KEYWORDS)


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
        #: Remembered pages linking only to settled pages; never pushed.
        self._settled: set[str] = set()
        #: Remembered pages not (yet) settled.
        self._pending: set[str] = set()
        #: Link priority of each content page peeked, by URL.
        self._priorities: dict[str, float] = {}
        #: The navigation page last peeked at each URL, with its priority.
        self._hub_priorities: dict[str, tuple[Page, float]] = {}

    def crawl(
        self, seeds: Iterable[str] = (FRONT_PAGE_URL,)
    ) -> CrawlResult:
        """Crawl from ``seeds``, expanding highest-scoring pages first.

        A remembered content page is not fetched, not appended to
        ``pages`` and emits no ``page_crawled`` event; its remembered
        links are pushed in its place, and a settled one is not pushed
        at all.  So fetch order, depth and ``via`` equal a from-scratch
        crawl's restricted to the fetched pages, and ``max_pages``
        counts fetches only.
        """
        self._settle()
        settled = self._settled
        result = CrawlResult()
        counter = itertools.count()  # tie-break to keep heap deterministic
        frontier: list[tuple[float, int, int, str, str | None]] = []
        seen: set[str] = set()
        for seed in seeds:
            if seed not in seen and seed not in settled:
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
                        self._pending.add(url)
                if depth >= self.max_depth:
                    continue
                for link in links:
                    if link in seen or link in settled:
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

    def _settle(self) -> None:
        """Settle every pending page that links only to settled pages.

        A pending page stays pending when it links to a page that is
        not remembered, or to a pending page that stays pending.  One
        reverse-reachability pass from the pages of the first kind
        finds all of them; the rest settle.  The pass is linear in the
        pending pages' links.
        """
        pending = self._pending
        settled = self._settled
        remembered = self._remembered
        linked_from: dict[str, list[str]] = {}
        unsettled: set[str] = set()
        for url in pending:
            for link in remembered[url]:
                if link in settled:
                    continue
                if link in pending:
                    linked_from.setdefault(link, []).append(url)
                else:
                    unsettled.add(url)
        stack = list(unsettled)
        while stack:
            for source in linked_from.get(stack.pop(), ()):
                if source not in unsettled:
                    unsettled.add(source)
                    stack.append(source)
        settled.update(pending - unsettled)
        self._pending = unsettled

    def _priority(self, url: str) -> float:
        """Frontier priority of ``url``: its negated score, lowest first.

        Peeks at the target; a real crawler would rank by anchor text,
        we rank by the page itself.  Content pages never change, so
        their priority is computed once per crawler; a navigation
        page's is reused while the web serves the same ``Page``.
        """
        priority = self._priorities.get(url)
        if priority is not None:
            return priority
        if not self.web.has(url):
            return 0.0
        page = self.web.peek(url)
        if page.document is not None:
            priority = self._priorities[url] = -self.scorer(page)
            return priority
        scored = self._hub_priorities.get(url)
        if scored is not None and scored[0] is page:
            return scored[1]
        priority = -self.scorer(page)
        self._hub_priorities[url] = (page, priority)
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
