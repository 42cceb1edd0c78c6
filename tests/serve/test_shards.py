"""ShardedIndex: partitioning, exact parity, and the atomic snapshot swap."""

from __future__ import annotations

import threading

import pytest

from repro.gather.store import DocumentStore, StoredDocument
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.serve.shards import IndexSnapshot, ShardedIndex, shard_of
from tests.search.helpers import build_engine_from_pairs


def make_docs(n: int, marker: str = "alpha"):
    return [
        (
            f"doc-{i:04d}",
            f"Acme {marker} acquired Widgets number {i} in a merger",
            f"title {i}",
        )
        for i in range(n)
    ]


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for key in ("a", "doc-17", "http://x.example/p"):
            first = shard_of(key, 8)
            assert first == shard_of(key, 8)
            assert 0 <= first < 8

    def test_single_shard(self):
        assert shard_of("anything", 1) == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_of("a", 0)

    def test_reasonable_balance(self):
        counts = [0] * 4
        for i in range(2000):
            counts[shard_of(f"doc-{i}", 4)] += 1
        assert min(counts) > 300  # hash partitioning, not clustering


class TestRebuild:
    def test_empty_index_answers(self):
        index = ShardedIndex(n_shards=3)
        assert index.search("anything") == []
        assert index.generation == 0

    def test_generation_advances(self):
        index = ShardedIndex(n_shards=2)
        index.rebuild(make_docs(10))
        assert index.generation == 1
        index.rebuild(make_docs(10))
        assert index.generation == 2

    def test_docs_land_on_their_hash_shard(self):
        index = ShardedIndex(n_shards=4)
        snapshot = index.rebuild(make_docs(50))
        assert snapshot.n_docs == 50
        assert sum(snapshot.shard_sizes()) == 50
        keys = snapshot.engine.index.keys
        for doc_key, _, _ in make_docs(50):
            ordinal = keys.index(doc_key)
            shard = shard_of(doc_key, 4)
            assert snapshot.partition[ordinal] == shard
            assert snapshot.shards[shard].ordinals[ordinal]

    def test_rebuild_from_store(self):
        store = DocumentStore()
        for doc_key, text, title in make_docs(12):
            store.add(StoredDocument(doc_key, f"http://x/{doc_key}",
                                     title, text))
        index = ShardedIndex(n_shards=3)
        snapshot = index.rebuild_from_store(store)
        assert snapshot.n_docs == 12

    def test_restore_lands_on_the_given_generation(self):
        index = ShardedIndex(n_shards=3)
        index.rebuild(make_docs(4))
        docs = make_docs(20)
        snapshot = index.restore(docs, generation=7)
        assert snapshot.generation == index.generation == 7
        assert snapshot.n_docs == 20
        hits = {r.doc_key for r in index.search("merger", top_k=100)}
        assert hits == {doc_key for doc_key, _, _ in docs}
        with pytest.raises(ValueError):
            index.restore(docs, generation=-1)

    def test_swap_event_emitted(self):
        log = EventLog()
        index = ShardedIndex(n_shards=2, tracer=Tracer(recorder=log))
        index.rebuild(make_docs(5))
        [event] = log.events("snapshot_swapped")
        assert event.payload == {
            "generation": 1, "n_docs": 5, "n_shards": 2,
        }


class TestSearchParity:
    def test_same_documents_as_flat_engine(self):
        docs = make_docs(40)
        flat = build_engine_from_pairs(
            [(key, text) for key, text, _ in docs]
        )
        index = ShardedIndex(n_shards=4)
        snapshot = index.rebuild(docs)
        for query in ('"acme alpha"', "merger", '"number 7"'):
            for top_k in (5, 100):
                expected = [
                    (r.doc_key, r.score)
                    for r in flat.search(query, top_k=top_k)
                ]
                got = [
                    (r.doc_key, r.score)
                    for r in index.search(query, top_k=top_k)
                ]
                assert got == expected
                merged = sorted(
                    (
                        (r.doc_key, r.score)
                        for view in snapshot.shards
                        for r in view.search(query, top_k=top_k)
                    ),
                    key=lambda hit: (-hit[1], hit[0]),
                )
                assert merged[:top_k] == expected

    def test_shard_view_is_the_ranking_restricted_to_its_keys(self):
        index = ShardedIndex(n_shards=3)
        snapshot = index.rebuild(make_docs(40))
        full = snapshot.search("merger widgets", top_k=100)
        for shard, view in enumerate(snapshot.shards):
            assert view.search("merger widgets", top_k=100) == [
                r for r in full if shard_of(r.doc_key, 3) == shard
            ]

    def test_top_k_truncation_and_order(self):
        index = ShardedIndex(n_shards=4)
        index.rebuild(make_docs(40))
        results = index.search("merger", top_k=5)
        assert len(results) == 5
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_zero_top_k(self):
        index = ShardedIndex(n_shards=2)
        index.rebuild(make_docs(5))
        assert index.search("merger", top_k=0) == []


class TestAtomicSwap:
    """Zero-downtime re-index: readers never see a torn generation."""

    def test_concurrent_queries_see_whole_generations(self):
        index = ShardedIndex(n_shards=4)
        index.rebuild(make_docs(30, marker="alpha"))
        alpha_keys = {key for key, _, _ in make_docs(30)}
        beta_docs = [
            (f"beta-{i:04d}",
             f"Acme beta acquired Widgets number {i} in a merger",
             "")
            for i in range(30)
        ]
        beta_keys = {key for key, _, _ in beta_docs}

        torn: list[set] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            try:
                while not stop.is_set():
                    snapshot = index.snapshot
                    hits = {
                        r.doc_key
                        for r in snapshot.search("merger", top_k=100)
                    }
                    if not (
                        hits <= alpha_keys or hits <= beta_keys
                    ):
                        torn.append(hits)
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(5):
            index.rebuild(beta_docs)
            index.rebuild(make_docs(30, marker="alpha"))
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert not torn

    def test_inflight_snapshot_survives_swap(self):
        index = ShardedIndex(n_shards=2)
        index.rebuild(make_docs(10))
        held = index.snapshot
        index.rebuild(make_docs(3))
        # The held generation still answers fully even after the swap.
        assert isinstance(held, IndexSnapshot)
        assert held.n_docs == 10
        assert len(held.search("merger", top_k=100)) == 10
        assert index.snapshot.n_docs == 3
