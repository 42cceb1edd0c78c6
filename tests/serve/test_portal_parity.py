"""The portal ranks exactly as the pipeline's search engine does.

Each serving generation is one index searched with the corpus's global
BM25 statistics, so for any shard count the portal's answer equals
``etap.engine.search`` — the same documents in the same order with
``==`` scores — on the local path, on the replicated path (shard views
merged by the router), and for a portal that indexed a bare store
itself.  Serving an Etap re-tokenizes nothing: set-up and refresh clone
the pipeline's index.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.etap import Etap
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.gather.store import DocumentStore, StoredDocument
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.serve import AdmissionController, AlertPortal

WORDS = [
    "acme", "acquired", "globex", "merger", "revenue", "growth",
    "new", "ceo", "plant", "opens", "deal", "quarterly",
]

texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=14).map(
    " ".join
)
corpora = st.lists(texts, min_size=1, max_size=30)
phrases = st.lists(st.sampled_from(WORDS), min_size=2, max_size=2).map(
    lambda words: '"' + " ".join(words) + '"'
)
queries = st.lists(
    st.one_of(st.sampled_from(WORDS), phrases), min_size=1, max_size=3
).map(" ".join)


def build_etap(corpus: list[str]) -> Etap:
    """An Etap whose store and index hold ``corpus``."""
    store = DocumentStore()
    for i, text in enumerate(corpus):
        store.try_add(StoredDocument(
            doc_id=f"doc-{i:03d}",
            url=f"http://site-{i % 4}.example/{i}",
            title=f"story {i}",
            text=text,
        ))
    engine = SearchEngine()
    etap = Etap(store, engine)
    engine.add_documents(
        (document.doc_id, document.text, document.title)
        for document in store
    )
    return etap


def open_admission() -> AdmissionController:
    return AdmissionController(rate=1e9, burst=1e9)


@given(
    corpus=corpora,
    query_list=st.lists(queries, min_size=1, max_size=4),
    n_shards=st.integers(1, 8),
    n_replicas=st.sampled_from([1, 3]),
    top_k=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_portal_ranks_exactly_as_the_pipeline(
    corpus, query_list, n_shards, n_replicas, top_k
):
    etap = build_etap(corpus)
    with AlertPortal.from_etap(
        etap,
        n_shards=n_shards,
        n_replicas=n_replicas,
        admission=open_admission(),
    ) as portal, AlertPortal(
        etap.store, n_shards=n_shards, admission=open_admission()
    ) as bare:
        bare.refresh()
        for query in query_list:
            expected = tuple(etap.engine.search(query, top_k=top_k))
            for served in (portal, bare):
                response = served.query("analyst", query, top_k=top_k)
                assert response.status == "ok"
                assert not response.degraded
                assert response.results == expected


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record every call of ``owner.name`` (still calling through)."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


class TestNoRetokenization:
    def test_from_etap_makes_no_text_engine_lookup(self, small_web):
        etap = Etap.from_web(small_web)
        etap.gather()
        before = etap.text_engine.stats()
        with AlertPortal.from_etap(etap, n_shards=4) as portal:
            assert portal.shards.snapshot.n_docs == len(etap.store)
        after = etap.text_engine.stats()
        assert after.hits + after.misses == before.hits + before.misses

    def test_refresh_after_regather_clones_once_and_writes_nothing(
        self, monkeypatch
    ):
        web = build_web(200, CorpusConfig(seed=5))
        etap = Etap.from_web(web)
        etap.gather()
        with AlertPortal.from_etap(etap, n_shards=4) as portal:
            before = portal.shards.snapshot.n_docs
            WebEvolver(web, CorpusConfig(seed=6)).advance(20)
            assert etap.gather().documents_stored > 0
            clones = count_calls(monkeypatch, InvertedIndex, "clone")
            writes = count_calls(
                monkeypatch, InvertedIndex, "add_documents"
            )
            portal.refresh()
            assert len(clones) == 1
            assert writes == []
            snapshot = portal.shards.snapshot
            assert snapshot.n_docs == len(etap.store) > before
            assert snapshot.engine.index is not etap.engine.index
