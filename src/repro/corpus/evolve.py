"""Web evolution: new pages appear between crawl cycles.

ETAP is an *alert* program — its value is noticing trigger events soon
after they are published.  :class:`WebEvolver` simulates the passage of
time on a :class:`~repro.corpus.web.SyntheticWeb`: each call to
:meth:`advance` publishes a batch of fresh documents and wires them into
a "latest news" hub that the front page links to, so an incremental
re-crawl discovers them.
"""

from __future__ import annotations

import dataclasses

from repro.corpus.generator import CorpusConfig, CorpusGenerator, Document
from repro.corpus.web import FRONT_PAGE_URL, Page, SyntheticWeb

LATEST_HUB_URL = "http://news.example.com/latest.html"


#: Doc-id offset for evolved documents; seed corpora count from 0, so
#: evolved ids never collide with a seed corpus below a million pages.
EVOLVED_START_ID = 1_000_000


class WebEvolver:
    """Publishes new documents onto an existing synthetic web."""

    def __init__(
        self,
        web: SyntheticWeb,
        config: CorpusConfig | None = None,
        start_id: int = EVOLVED_START_ID,
    ) -> None:
        self.web = web
        config = config or CorpusConfig()
        # Never collide with doc-ids already on the web: evolved ids
        # count from their own offset namespace.
        self._generator = CorpusGenerator(config, start_id=start_id)
        self.cycle = 0

    def advance(self, n_new_docs: int = 20) -> list[Document]:
        """One time step: publish ``n_new_docs`` fresh documents.

        New pages are stamped with a publication day after the initial
        corpus's timeline: day ``timeline_days + cycle``.
        """
        if n_new_docs <= 0:
            raise ValueError("n_new_docs must be positive")
        self.cycle += 1
        today = self._generator.config.timeline_days + self.cycle
        documents = [
            dataclasses.replace(document, published_day=today)
            for document in self._generator.generate(n_new_docs)
        ]
        for document in documents:
            self.web.add_page(
                Page(
                    url=document.url,
                    title=document.title,
                    text=document.text,
                    links=(),
                    document=document,
                )
            )
        self._refresh_latest_hub(documents)
        return documents

    def _refresh_latest_hub(self, documents: list[Document]) -> None:
        # The publisher reads its own pages with ``peek``: on a
        # fault-injecting web a ``fetch`` would fail like a crawler's
        # and spend the crawler's fetch attempts.
        existing: tuple[str, ...] = ()
        if self.web.has(LATEST_HUB_URL):
            existing = self.web.peek(LATEST_HUB_URL).links
        links = tuple(doc.url for doc in documents) + existing
        self.web.add_page(
            Page(
                url=LATEST_HUB_URL,
                title="Latest news",
                text=" ".join(doc.title + "." for doc in documents),
                links=links[:500],  # a real hub paginates; we cap
            )
        )
        front = self.web.peek(FRONT_PAGE_URL)
        if LATEST_HUB_URL not in front.links:
            self.web.add_page(
                Page(
                    url=front.url,
                    title=front.title,
                    text=front.text,
                    links=(LATEST_HUB_URL,) + front.links,
                )
            )
