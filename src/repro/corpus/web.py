"""The synthetic Web: documents wired into a hyperlinked site graph.

The paper's data-gathering component [2] performs "a focused crawl of the
Web".  To exercise that code path, the reproduction materializes the
generated corpus as a small web: each site gets hub (index) pages that
link to its articles, articles cross-link to related articles about the
same company, and a front page links to every hub.  The link structure is
a :class:`networkx.DiGraph`, and :class:`SyntheticWeb` serves pages by
URL the way an HTTP fetcher would.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from urllib.parse import urlparse

import networkx as nx

from repro.corpus.generator import CorpusConfig, CorpusGenerator, Document

FRONT_PAGE_URL = "http://www.example.com/index.html"


@dataclass(frozen=True)
class Page:
    """One fetchable web page."""

    url: str
    title: str
    text: str
    links: tuple[str, ...]
    document: Document | None = None


class SyntheticWeb:
    """An in-memory web of pages plus its hyperlink graph."""

    def __init__(self, pages: dict[str, Page], graph: nx.DiGraph) -> None:
        self._pages = pages
        self.graph = graph

    # -- HTTP-like access ----------------------------------------------------

    def fetch(self, url: str) -> Page:
        """Fetch a page by URL; raises ``KeyError`` for a 404."""
        return self._pages[url]

    def peek(self, url: str) -> Page:
        """Look at a page without "fetching" it.

        Identical to :meth:`fetch` here; fault-injecting wrappers
        (:class:`~repro.robustness.faults.FaultyWeb`) override ``fetch``
        with failures but keep ``peek`` transparent, so simulation
        conveniences like the crawler's link-prioritization peek do not
        consume fault attempts.
        """
        return self._pages[url]

    def add_page(self, page: Page) -> None:
        """Publish (or replace) a page, updating the link graph."""
        previous = self._pages.get(page.url)
        if previous is not None:
            for target in previous.links:
                if self.graph.has_edge(page.url, target):
                    self.graph.remove_edge(page.url, target)
        self._pages[page.url] = page
        self.graph.add_node(page.url)
        for target in page.links:
            self.graph.add_edge(page.url, target)

    def has(self, url: str) -> bool:
        return url in self._pages

    @property
    def urls(self) -> list[str]:
        return list(self._pages)

    @property
    def documents(self) -> list[Document]:
        return [
            page.document
            for page in self._pages.values()
            if page.document is not None
        ]

    def __len__(self) -> int:
        return len(self._pages)


def _site_of(url: str) -> str:
    return urlparse(url).netloc


def build_web(
    n_docs: int = 2000, config: CorpusConfig | None = None
) -> SyntheticWeb:
    """Generate a corpus and assemble it into a crawlable synthetic web."""
    config = config or CorpusConfig()
    generator = CorpusGenerator(config)
    documents = generator.generate(n_docs)
    rng = random.Random(config.seed + 1)

    by_site: dict[str, list[Document]] = defaultdict(list)
    by_company: dict[str, list[Document]] = defaultdict(list)
    for document in documents:
        by_site[_site_of(document.url)].append(document)
        for company in document.companies:
            by_company[company].append(document)

    pages: dict[str, Page] = {}
    graph = nx.DiGraph()

    # Article pages with "related story" cross-links.
    for document in documents:
        related: list[str] = []
        for company in document.companies:
            candidates = [
                other.url
                for other in by_company[company]
                if other.url != document.url
            ]
            related.extend(rng.sample(candidates, min(2, len(candidates))))
        seen: set[str] = set()
        links = tuple(
            url for url in related if not (url in seen or seen.add(url))
        )
        pages[document.url] = Page(
            url=document.url,
            title=document.title,
            text=document.text,
            links=links,
            document=document,
        )

    # Hub pages: one index per site, paginated every 50 articles.
    hub_urls: list[str] = []
    for site, site_docs in sorted(by_site.items()):
        for page_no in range(0, len(site_docs), 50):
            batch = site_docs[page_no : page_no + 50]
            hub_url = f"http://{site}/index-{page_no // 50}.html"
            hub_urls.append(hub_url)
            summary = " ".join(doc.title + "." for doc in batch)
            pages[hub_url] = Page(
                url=hub_url,
                title=f"{site} index {page_no // 50}",
                text=summary,
                links=tuple(doc.url for doc in batch),
            )

    pages[FRONT_PAGE_URL] = Page(
        url=FRONT_PAGE_URL,
        title="Example Web front page",
        text="Directory of sites.",
        links=tuple(hub_urls),
    )

    for page in pages.values():
        graph.add_node(page.url)
        for target in page.links:
            graph.add_edge(page.url, target)

    return SyntheticWeb(pages, graph)
