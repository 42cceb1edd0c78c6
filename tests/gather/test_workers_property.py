"""Property suite: worker count never changes what ingestion produces.

Randomized corpora (drawn from a small sentence pool, so sentence- and
document-level duplicates arise constantly) go through
:class:`~repro.gather.ingest.ShardedIngester` at several worker counts;
every run must be bit-identical to the classic serial
``InvertedIndex.add_document`` build — store order, vocabulary,
postings (docs *and* positions), document frequencies, and the
document-term matrix.  A final end-to-end leg pins alert ids across
worker counts on a corpus independent of the golden snapshot's.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alerts import AlertService
from repro.core.etap import Etap, EtapConfig
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.gather.ingest import AcceptedDoc, ShardedIngester
from repro.gather.store import DocumentStore, StoredDocument
from repro.search.index import InvertedIndex
from repro.text.engine import split_document
from tests.search.helpers import postings_snapshot

WORKER_COUNTS = (1, 2, 4)

#: Small pool → heavy cross-document sentence reuse, which is exactly
#: what the per-sentence memo and the dedup short-circuits feed on.
SENTENCES = (
    "Acme Corp. acquired Widgets Inc.",
    "Quarterly revenue rose 12%.",
    "A new CEO was appointed on Monday.",
    "The deal closed quickly.",
    "Layoffs hit the sector hard.",
    "Analysts cheered the results.",
    "The merger was announced today.",
    "Markets reacted calmly.",
)

#: ``""`` abuts sentences: the split still cuts between them, but the
#: document tokenizes across the cut (``results.markets``), so ingestion
#: takes its whole-document fallback.
JOINS = (" ", "")

ABUTTING = [
    "Analysts cheered the results.Markets reacted calmly.",
    "The deal closed quickly. Layoffs hit the sector hard.",
]


@st.composite
def corpora(draw) -> list[str]:
    texts = draw(
        st.lists(
            st.builds(
                str.join,
                st.sampled_from(JOINS),
                st.lists(st.sampled_from(SENTENCES), min_size=0, max_size=4),
            ),
            min_size=0,
            max_size=18,
        )
    )
    # Re-append earlier texts verbatim: exact content duplicates that
    # the parent-side dedup must drop before any shard sees them.
    if texts:
        for index in draw(
            st.lists(
                st.integers(0, len(texts) - 1), min_size=0, max_size=6
            )
        ):
            texts.append(texts[index])
    return texts


def ingest_all(texts):
    """Serial dedup + accept, exactly like the pipeline's parent loop."""
    store = DocumentStore()
    accepted = []
    for i, text in enumerate(texts):
        document = StoredDocument(
            doc_id=f"d{i}", url=f"http://s/{i}", title=f"t{i}", text=text
        )
        added, _, fingerprint = store.try_add(document)
        if added:
            accepted.append(
                AcceptedDoc(
                    seq=len(accepted),
                    doc_id=document.doc_id,
                    title=document.title,
                    fingerprint=fingerprint,
                )
            )
    return store, accepted


def full_snapshot(index, vocab):
    return {
        "doc_keys": index.doc_keys(),
        "vocab": index.vocab,
        "postings": postings_snapshot(index, vocab),
        "df": {term: index.document_frequency(term) for term in vocab},
        "lengths": {
            doc_key: index.doc_length(doc_key)
            for doc_key in index.doc_keys()
        },
    }


@settings(max_examples=12, deadline=None)
@given(corpora())
# One document, four workers: shards must tolerate being empty.
@example(["Acme Corp. acquired Widgets Inc."])
# Duplicate-heavy corpus whose *unique* survivors still cross shard
# boundaries: every text appears twice, only the first copy lands.
@example([s for s in SENTENCES for _ in range(2)])
@example([])
@example(ABUTTING)
def test_every_worker_count_matches_serial_build(texts):
    store, accepted = ingest_all(texts)
    abutting = sum(
        not split_document(document.text).composes for document in store
    )

    reference = InvertedIndex()
    for document in store:
        reference.add_document(
            document.doc_id, document.text, document.title
        )
    serial_order = [document.doc_id for document in store]

    baseline = None
    for workers in WORKER_COUNTS:
        result = ShardedIngester(workers).ingest(store, accepted)
        assert result.fallbacks == abutting
        index = result.index
        # Store order is fixed by the serial parent loop — sharding
        # must reflect it back untouched.
        assert index.doc_keys() == serial_order
        assert full_snapshot(index, index.vocab) == full_snapshot(
            reference, index.vocab
        )
        current = (
            index.vocab,
            index.sorted_doc.tolist(),
            index.sorted_pos.tolist(),
        )
        if baseline is None:
            baseline = current
        else:
            assert current == baseline, (
                f"workers={workers} produced a different index"
            )


def test_abutting_corpus_takes_the_fallback():
    """The ``ABUTTING`` example really runs the whole-document path."""
    store, accepted = ingest_all(ABUTTING)
    for workers in WORKER_COUNTS:
        assert ShardedIngester(workers).ingest(store, accepted).fallbacks == 1


class TestEndToEndAlerts:
    """Alert ids survive the full pipeline at every worker count.

    Uses its own corpus seed so this is independent evidence from the
    golden-scenario equivalence test in ``test_workers_equivalence``.
    """

    N_DOCS = 80
    SEED = 101
    EVOLVE_SEED = 17
    N_NEW_DOCS = 15

    @classmethod
    def run(cls, workers: int):
        web = build_web(cls.N_DOCS, CorpusConfig(seed=cls.SEED))
        etap = Etap.from_web(
            web,
            config=EtapConfig(
                workers=workers,
                top_k_per_query=20,
                negative_sample_size=200,
            ),
        )
        etap.gather()
        etap.train()
        service = AlertService(etap)
        WebEvolver(web, CorpusConfig(seed=cls.EVOLVE_SEED)).advance(
            cls.N_NEW_DOCS
        )
        report = service.poll()
        return {
            "store_order": [doc.doc_id for doc in etap.store],
            "doc_keys": etap.engine.index.doc_keys(),
            "alert_ids": sorted(a.alert_id for a in report.alerts),
        }

    @pytest.fixture(scope="class")
    def serial(self):
        return self.run(workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_alert_ids_match_serial(self, serial, workers):
        assert self.run(workers) == serial
