"""Sharded-ingestion tests: routing, worker tokenization, merge, events.

The determinism contract under test: for any worker count, the merged
index is bit-identical to a serial ``InvertedIndex.add_document``
build over the same documents in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.gather.store as store_module
from repro.gather.ingest import (
    AcceptedDoc,
    ShardedIngester,
    shard_of,
    tokenize_shard,
)
from repro.gather.store import DocumentStore, StoredDocument, content_hash
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.search.index import InvertedIndex
from repro.text.engine import AnnotationEngine, split_document
from tests.search.helpers import postings_snapshot

TEXTS = [
    "Acme Corp. acquired Widgets Inc. The deal closed quickly.",
    "Quarterly revenue rose 12%. Analysts cheered the results.",
    "Acme Corp. acquired Widgets Inc. Markets reacted calmly.",
    "The merger was announced on Monday. Quarterly revenue rose 12%.",
    "A new CEO was appointed. The deal closed quickly.",
    "Layoffs hit the sector. A new CEO was appointed.",
    "",
]


def build_store(texts=TEXTS):
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


def classic_index(store):
    index = InvertedIndex()
    for document in store:
        index.add_document(document.doc_id, document.text, document.title)
    return index


class TestShardOf:
    def test_deterministic_and_in_range(self):
        fingerprint = content_hash("some document text")
        for n in (1, 2, 4, 7):
            shard = shard_of(fingerprint, n)
            assert 0 <= shard < n
            assert shard == shard_of(fingerprint, n)

    def test_spreads_across_shards(self):
        shards = {
            shard_of(content_hash(f"text {i}"), 4) for i in range(50)
        }
        assert shards == {0, 1, 2, 3}


class TestTokenizeShard:
    def test_engine_and_engineless_paths_agree(self, monkeypatch):
        store, accepted = build_store()
        ordinals = [store.ordinal_of(doc.doc_id) for doc in accepted]
        buffer, offsets = store.flat_texts(ordinals)
        built = []
        init = AnnotationEngine.__init__

        def counting_init(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(AnnotationEngine, "__init__", counting_init)
        bare = tokenize_shard(0, buffer, offsets, engine=None)
        # The worker-process path builds no throw-away engine.
        assert built == []
        monkeypatch.undo()
        # A shared engine that already cached every split and sentence.
        engine = AnnotationEngine()
        tokenize_shard(0, buffer, offsets, engine=engine)
        warmed = tokenize_shard(0, buffer, offsets, engine=engine)
        assert bare.vocab == warmed.vocab
        assert bare.token_terms.tolist() == warmed.token_terms.tolist()
        assert bare.doc_ptr.tolist() == warmed.doc_ptr.tolist()

    def test_sentence_memo_accounting(self):
        store, accepted = build_store()
        ordinals = [store.ordinal_of(doc.doc_id) for doc in accepted]
        buffer, offsets = store.flat_texts(ordinals)
        result = tokenize_shard(0, buffer, offsets)
        # The corpus repeats sentences across documents by design.
        assert result.sentence_hits > 0
        assert result.sentence_misses > 0
        assert result.fallbacks == 0


class TestMergeDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_flat_merge_matches_classic_serial_build(self, workers):
        store, accepted = build_store()
        result = ShardedIngester(workers).ingest(store, accepted)
        flat_index = result.index
        reference = classic_index(store)
        assert flat_index.doc_keys() == reference.doc_keys()
        assert flat_index.vocab == reference.vocab
        assert postings_snapshot(
            flat_index, flat_index.vocab
        ) == postings_snapshot(reference, flat_index.vocab)
        for term in flat_index.vocab:
            assert flat_index.document_frequency(
                term
            ) == reference.document_frequency(term)
        for doc_key in reference.doc_keys():
            assert flat_index.doc_length(doc_key) == reference.doc_length(
                doc_key
            )
            assert flat_index.title(doc_key) == reference.title(doc_key)

    def test_vocab_identical_across_worker_counts(self):
        store, accepted = build_store()
        vocabs = [
            ShardedIngester(w).ingest(store, accepted).index.vocab
            for w in (1, 2, 4)
        ]
        assert vocabs[0] == vocabs[1] == vocabs[2]

    def test_corpus_smaller_than_worker_count(self):
        store, accepted = build_store(["Just one document here."])
        index = ShardedIngester(4).ingest(store, accepted).index
        reference = classic_index(store)
        assert postings_snapshot(index, index.vocab) == postings_snapshot(
            reference, index.vocab
        )

    def test_spawn_start_method_matches_fork(self):
        """Workers must never silently depend on fork: the payloads and
        the worker entry point stay picklable under spawn."""
        store, accepted = build_store()
        forked = ShardedIngester(2, mp_start_method="fork").ingest(
            store, accepted
        )
        spawned = ShardedIngester(2, mp_start_method="spawn").ingest(
            store, accepted
        )
        assert forked.index.vocab == spawned.index.vocab
        for name in ("sorted_doc", "sorted_pos", "term_starts", "lengths"):
            assert np.array_equal(
                getattr(forked.index, name), getattr(spawned.index, name)
            )
        assert len(forked.splits) == len(spawned.splits) == 2
        for a, b in zip(forked.splits, spawned.splits):
            assert a.keys == b.keys
            for name in ("bounds", "ptr", "composes"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


class TestShippedSplits:
    def test_worker_splits_equal_the_engine_split(self):
        store, accepted = build_store(TEXTS + ["Acme rose.Beta fell. Done."])
        ordinals = [store.ordinal_of(doc.doc_id) for doc in accepted]
        buffer, offsets = store.flat_texts(ordinals)
        shipped = tokenize_shard(0, buffer, offsets).splits
        assert tokenize_shard(
            0, buffer, offsets, engine=AnnotationEngine()
        ).splits is None
        for j, ordinal in enumerate(ordinals):
            text = store.text_at(ordinal)
            assert shipped.split(j, text) == split_document(text)
        assert not shipped.composes.all()

    def test_seeded_splits_are_read_as_hits(self):
        store, accepted = build_store()
        engines = {}
        for workers in (1, 2):
            engine = AnnotationEngine()
            ShardedIngester(workers, text_engine=engine).ingest(
                store, accepted
            )
            for document in store:
                assert engine.split(document.text) == split_document(
                    document.text
                )
            engines[workers] = engine.stats_by_product()["sentences"]
        assert engines[1].hits == engines[2].hits == len(accepted)
        assert engines[2].misses == 0


class TestObservability:
    def test_shard_merged_events_and_counters(self):
        store, accepted = build_store()
        log = EventLog()
        tracer = Tracer(recorder=log)
        ShardedIngester(2, tracer=tracer).ingest(
            store, accepted
        )
        events = log.events("shard_merged")
        assert len(events) == 2
        assert sum(e.payload["docs"] for e in events) == len(accepted)
        counters = tracer.registry.counters
        assert counters["ingest.shard_docs[0]"] + counters[
            "ingest.shard_docs[1]"
        ] == len(accepted)
        assert counters["ingest.shards_merged"] == 2


class TestHashShortCircuit:
    """`add` must not hash content when the id or url already dedupes."""

    @pytest.fixture
    def counted_hash(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return content_hash(text)

        monkeypatch.setattr(store_module, "content_hash", counting)
        return calls

    def test_id_duplicate_skips_hash(self, counted_hash):
        store = DocumentStore()
        store.add(StoredDocument("a", "http://x/1", "t", "first text"))
        assert len(counted_hash) == 1
        store.add(StoredDocument("a", "http://x/2", "t", "other text"))
        assert len(counted_hash) == 1  # no hash for the id duplicate

    def test_url_duplicate_skips_hash(self, counted_hash):
        store = DocumentStore()
        store.add(StoredDocument("a", "http://x/1", "t", "first text"))
        store.add(StoredDocument("b", "http://x/1", "t", "other text"))
        assert len(counted_hash) == 1  # no hash for the url duplicate

    def test_content_duplicate_still_hashes_once(self, counted_hash):
        store = DocumentStore()
        store.add(StoredDocument("a", "http://x/1", "t", "same text"))
        store.add(StoredDocument("b", "http://x/2", "t", "same  TEXT"))
        assert len(counted_hash) == 2  # one hash per add, both needed
        assert len(store) == 1
