"""Property suite: a re-gather equals a fresh crawl, minus known pages.

:class:`~repro.search.crawler.FocusedCrawler` remembers the links of
every content page it fetched healthy and replays them on later crawls
instead of fetching the page again.  On a fault-free web that evolves
by random :class:`~repro.corpus.evolve.WebEvolver` schedules, an
incremental gatherer must therefore match a fresh ``DataGatherer`` on
the same web after every step:

- both stores hold the same documents, and this step's new documents
  arrive in the same order;
- the incremental crawl fetches exactly the fresh crawl's pages minus
  the content pages fetched by earlier gathers, in the same order and
  with the same ``(url, depth, via)`` provenance.

With a binding budget, ``max_pages`` counts fetches: the crawl stops
after that many and its fetches are a prefix of the unbounded one's.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.gather.pipeline import DataGatherer
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.search.crawler import FocusedCrawler

Crawled = tuple[str, int, "str | None", "str | None"]


def crawled_since(log: EventLog, start: int) -> list[Crawled]:
    """``(url, depth, via, doc_id)`` of each fetch recorded from ``start``."""
    return [
        (
            event.payload["url"],
            event.payload["depth"],
            event.payload["via"],
            event.payload["doc_id"],
        )
        for event in log.events("page_crawled")
        if event.seq >= start
    ]


def recorded_gatherer(web) -> tuple[DataGatherer, EventLog]:
    log = EventLog()
    return DataGatherer(web, tracer=Tracer(recorder=log)), log


def gather_crawled(gatherer: DataGatherer, log: EventLog) -> list[Crawled]:
    start = log.total_emitted
    gatherer.gather()
    return crawled_since(log, start)


@settings(max_examples=12, deadline=None)
@given(
    n_docs=st.integers(min_value=100, max_value=300),
    web_seed=st.integers(min_value=0, max_value=10_000),
    # An evolver seeded like the web republishes the web's own texts
    # under new ids; which copy content dedup then keeps depends on
    # crawl order, for any crawler.  So the two seeds always differ.
    seed_offset=st.integers(min_value=1, max_value=10_000),
    schedule=st.lists(
        st.integers(min_value=1, max_value=30), min_size=1, max_size=4
    ),
)
def test_regather_equals_a_fresh_crawl(n_docs, web_seed, seed_offset, schedule):
    web = build_web(n_docs, CorpusConfig(seed=web_seed))
    incremental, log = recorded_gatherer(web)
    remembered = {
        url
        for url, _, _, doc_id in gather_crawled(incremental, log)
        if doc_id is not None
    }
    evolver = WebEvolver(web, CorpusConfig(seed=web_seed + seed_offset))
    for n_new in schedule:
        evolver.advance(n_new)
        known = set(incremental.store.doc_ids())
        crawled = gather_crawled(incremental, log)
        fresh, fresh_log = recorded_gatherer(web)
        fresh_crawled = gather_crawled(fresh, fresh_log)

        assert set(incremental.store.doc_ids()) == set(fresh.store.doc_ids())
        assert [
            doc_id for doc_id in incremental.store.doc_ids()
            if doc_id not in known
        ] == [
            doc_id for doc_id in fresh.store.doc_ids()
            if doc_id not in known
        ]
        assert crawled == [
            fetch for fetch in fresh_crawled if fetch[0] not in remembered
        ]
        # Replay is not vacuous: every known content page was skipped.
        assert len(crawled) == len(fresh_crawled) - len(remembered)
        remembered.update(url for url, _, _, doc_id in crawled if doc_id)


@settings(max_examples=10, deadline=None)
@given(
    web_seed=st.integers(min_value=0, max_value=10_000),
    n_new=st.integers(min_value=1, max_value=30),
    budget=st.integers(min_value=1, max_value=40),
)
def test_binding_budget_fetches_a_prefix(web_seed, n_new, budget):
    web = build_web(120, CorpusConfig(seed=web_seed))
    bounded = FocusedCrawler(web, max_pages=10_000)
    unbounded = FocusedCrawler(web, max_pages=10_000)
    bounded.crawl()
    unbounded.crawl()
    WebEvolver(web, CorpusConfig(seed=web_seed + 1)).advance(n_new)

    bounded.max_pages = budget
    cut = bounded.crawl().fetch_order
    due = unbounded.crawl().fetch_order
    assert len(cut) == min(budget, len(due))
    assert cut == due[: len(cut)]

    # Pages the budget cut off stay unknown: the next crawl fetches them.
    bounded.max_pages = 10_000
    rest = bounded.crawl().fetch_order
    cut_content = {url for url in cut if web.fetch(url).document}
    assert rest == [url for url in due if url not in cut_content]
