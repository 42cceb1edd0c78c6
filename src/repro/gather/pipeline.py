"""Data-gathering pipeline: crawl -> store -> index.

This is component (1) of Figure 1 in the paper: "gathers a collection of
documents D from various sources ... as well as from a focused crawl of
the Web."  :class:`DataGatherer` runs the focused crawler over a
:class:`~repro.corpus.web.SyntheticWeb`, deposits article pages into a
deduplicating :class:`~repro.gather.store.DocumentStore`, and builds the
search index that the training-data generator later queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.web import SyntheticWeb
from repro.gather.ingest import AcceptedDoc, ShardedIngester
from repro.gather.store import DocumentStore, StoredDocument
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.robustness.faults import FaultyWeb
from repro.robustness.fetcher import ResilientFetcher
from repro.search.crawler import FocusedCrawler, PageScorer, business_relevance
from repro.search.engine import SearchEngine
from repro.text.engine import AnnotationEngine

#: Default page budget for a gathering crawl, which the direct
#: ``DataGatherer(web)`` path and the ``Etap.from_web`` path share.
DEFAULT_MAX_CRAWL_PAGES = 100_000


@dataclass
class GatherReport:
    """Summary of one gathering run.

    The ``*_seconds`` fields are populated when the gatherer runs with
    a real :class:`~repro.obs.Tracer`; under the default null tracer
    they stay 0.0 (measuring would cost clock reads on the hot path).
    """

    pages_fetched: int
    documents_stored: int
    duplicates_skipped: int
    crawl_seconds: float = 0.0
    index_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Fetch-path degradation (non-zero only under fault injection):
    #: retry attempts spent, URLs permanently failed (crawled around),
    #: pages served degraded, degraded docs excluded from the index,
    #: and the resilient fetcher's dead-letter count.
    pages_retried: int = 0
    pages_failed: int = 0
    pages_degraded: int = 0
    degraded_skipped: int = 0
    dead_letters: int = 0


class DataGatherer:
    """Crawls a web, stores article documents and indexes them.

    The gatherer owns one :class:`~repro.search.crawler.FocusedCrawler`
    for its lifetime, so the first :meth:`gather` crawls the whole web
    and every later one is incremental: it fetches only navigation
    pages, new pages and pages that were dead or degraded before.  With
    a budget that does not bind, it stores the same new documents, in
    the same order, as a fresh gatherer's crawl of the same web would.
    """

    def __init__(
        self,
        web: SyntheticWeb,
        max_pages: int | None = None,
        scorer: PageScorer = business_relevance,
        tracer: AnyTracer | None = None,
        fetcher: ResilientFetcher | None = None,
        text_engine: AnnotationEngine | None = None,
        workers: int = 1,
    ) -> None:
        self.web = web
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.store = DocumentStore()
        #: Shared annotate-once engine; downstream stages (training,
        #: extraction) reuse its caches.
        self.text_engine = text_engine
        #: Ingestion fan-out width.  With ``workers > 1`` the initial
        #: gather partitions accepted documents by content hash and
        #: each worker *process* owns its shard end-to-end — tokenize
        #: and build its postings slice — before a deterministic merge
        #: (see :mod:`repro.gather.ingest`); output is bit-identical to
        #: ``workers=1``.  Incremental re-gathers (e.g. alert polling)
        #: index their new documents serially, in one batched write.
        self.workers = max(1, workers)
        self._memory_counted = 0
        self.engine = SearchEngine(tracer=self.tracer, text_engine=text_engine)
        # A faulty web without an explicit fetcher gets the resilient
        # path by default: transparent retries, breakers, dead letters.
        if fetcher is None and isinstance(web, FaultyWeb):
            fetcher = ResilientFetcher(web, seed=web.seed, tracer=self.tracer)
        self.fetcher = fetcher
        self._crawler = FocusedCrawler(
            web,
            scorer=scorer,
            max_pages=(
                DEFAULT_MAX_CRAWL_PAGES if max_pages is None else max_pages
            ),
            max_depth=10,
            tracer=self.tracer,
            fetcher=fetcher,
        )

    @property
    def max_pages(self) -> int:
        return self._crawler.max_pages

    def _index_delta(
        self, delta: list[tuple[str, str, str]]
    ) -> tuple[int, int]:
        """Index a re-gather's new documents; returns cache (hits, misses)."""
        if self.text_engine is None:
            self.engine.add_documents(delta)
            return 0, 0
        before = self.text_engine.stats()
        self.engine.add_documents(delta)
        after = self.text_engine.stats()
        return after.hits - before.hits, after.misses - before.misses

    def gather(self) -> GatherReport:
        """Run the crawl and populate store and index."""
        with self.tracer.span("gather") as gather_span:
            crawl = self._crawler.crawl()
            # The initial gather of a fresh store takes the sharded
            # path; incremental re-gathers (alert polling over an
            # already-built index) index their delta, small by
            # construction, as one write batch.
            sharded = len(self.store) == 0
            stored = 0
            skipped = 0
            degraded_skipped = 0
            accepted: list[AcceptedDoc] = []
            delta: list[tuple[str, str, str]] = []
            with self.tracer.span("gather.store_index") as index_span:
                for page in crawl.pages:
                    if page.document is None:
                        continue  # hub/index pages are navigation, not content
                    if page.url in crawl.degraded_urls:
                        # Degraded (truncated/garbled) text is counted
                        # but kept out of the store and index: it must
                        # never mint a trigger event a healthy fetch
                        # would not.
                        degraded_skipped += 1
                        continue
                    document = StoredDocument(
                        doc_id=page.document.doc_id,
                        url=page.url,
                        title=page.title,
                        text=page.text,
                        metadata={
                            "doc_type": page.document.doc_type,
                            "published_day": page.document.published_day,
                        },
                    )
                    added, _, fingerprint = self.store.try_add(document)
                    if added:
                        stored += 1
                        if sharded:
                            accepted.append(
                                AcceptedDoc(
                                    seq=len(accepted),
                                    doc_id=document.doc_id,
                                    title=document.title,
                                    fingerprint=fingerprint,  # type: ignore[arg-type]
                                )
                            )
                        else:
                            delta.append(
                                (document.doc_id, document.text, document.title)
                            )
                        self.tracer.emit(
                            "doc_indexed",
                            lineage_id=document.doc_id,
                            doc_id=document.doc_id,
                            url=document.url,
                            title=document.title,
                        )
                    else:
                        skipped += 1
                        self.tracer.emit(
                            "doc_deduped",
                            lineage_id=document.doc_id,
                            doc_id=document.doc_id,
                            url=document.url,
                            reason="exact",
                        )
                # Cache accounting covers this gather's lookups only:
                # the shard memos' on the sharded path, the annotation
                # engine's during the delta write otherwise.
                if not sharded:
                    hits, misses = self._index_delta(delta)
                elif accepted:
                    ingester = ShardedIngester(
                        self.workers,
                        text_engine=self.text_engine,
                        tracer=self.tracer,
                    )
                    result = ingester.ingest(self.store, accepted)
                    self.engine.index = result.index
                    self.tracer.count(
                        "engine.documents_indexed", stored
                    )
                    hits = result.sentence_hits
                    misses = result.sentence_misses
                else:
                    hits = misses = 0
                self.tracer.count("ingest.cache_hits", hits)
                self.tracer.count("ingest.cache_misses", misses)
                index_span.add_items(stored)
            gather_span.add_items(stored)
            self.tracer.count("gather.documents_stored", stored)
            self.tracer.count("gather.duplicates_skipped", skipped)
            self.tracer.count(
                "gather.degraded_skipped", degraded_skipped
            )
            self.tracer.count("ingest.documents_indexed", stored)
            # Keep the cumulative counter equal to the store's current
            # resident size so the memory-per-doc gauge stays honest
            # across repeated gathers.
            memory = self.store.memory_bytes()
            self.tracer.count(
                "ingest.memory_bytes", memory - self._memory_counted
            )
            self._memory_counted = memory
            windows = self.tracer.windows
            if windows is not None:
                windows.record("ingest.docs", n=stored)
                windows.record("ingest.pages", n=len(crawl.pages))
                windows.record("ingest.dedup_skipped", n=skipped)
        crawl_seconds = next(
            (
                child.duration
                for child in gather_span.children
                if child.name == "gather.crawl"
            ),
            0.0,
        )
        return GatherReport(
            pages_fetched=len(crawl.pages),
            documents_stored=stored,
            duplicates_skipped=skipped,
            crawl_seconds=crawl_seconds,
            index_seconds=index_span.duration,
            total_seconds=gather_span.duration,
            pages_retried=crawl.retried,
            pages_failed=crawl.dead,
            pages_degraded=crawl.degraded,
            degraded_skipped=degraded_skipped,
            dead_letters=(
                len(self.fetcher.dead_letters)
                if self.fetcher is not None
                else 0
            ),
        )
