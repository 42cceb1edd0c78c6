"""Property tests for incremental index maintenance (hypothesis).

The serve layer builds "previous generation + delta" indexes out of
:meth:`InvertedIndex.clone` + :meth:`add_documents`; these properties
pin the invariant that makes that safe: however a document set reaches
the index — one at a time, batched, re-added, via clone-and-extend —
the resulting index answers queries identically to a fresh bulk build.
The doc-level postings built at write time must equal the runs of the
position postings on every one of those paths.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex, doc_runs
from repro.serve.shards import ShardedIndex
from tests.search.helpers import index_of, postings_snapshot
from tests.search.test_flat_index import build_flat

WORDS = ["acme", "acquired", "revenue", "ceo", "plant", "growth"]

text_strategy = st.lists(
    st.sampled_from(WORDS), max_size=10
).map(" ".join)

docs_strategy = st.dictionaries(
    keys=st.sampled_from([f"doc-{i}" for i in range(6)]),
    values=text_strategy,
    max_size=6,
)


def canonical(index: InvertedIndex) -> dict:
    """A comparable dump of the index's observable state."""
    return {
        "docs": sorted(index.doc_keys()),
        "lengths": {
            key: index.doc_length(key) for key in index.doc_keys()
        },
        "titles": {key: index.title(key) for key in index.doc_keys()},
        "postings": postings_snapshot(index, WORDS),
        "df": {word: index.document_frequency(word) for word in WORDS},
        "total_terms": index.total_terms,
    }


@given(docs_strategy)
def test_incremental_adds_equal_bulk_rebuild(docs):
    incremental = InvertedIndex()
    for doc_key, text in docs.items():
        incremental.add_document(doc_key, text, title=doc_key)
    bulk = index_of(
        (doc_key, text, doc_key) for doc_key, text in docs.items()
    )
    assert canonical(incremental) == canonical(bulk)


@given(docs_strategy, text_strategy)
def test_readd_replaces_and_equals_final_state(docs, new_text):
    if not docs:
        return
    target = sorted(docs)[0]
    index = InvertedIndex()
    for doc_key, text in docs.items():
        index.add_document(doc_key, text)
    index.add_document(target, new_text)
    final = dict(docs)
    final[target] = new_text
    expected = index_of(
        (doc_key, text, "") for doc_key, text in final.items()
    )
    assert canonical(index) == canonical(expected)


@given(st.lists(st.tuples(
    st.sampled_from([f"doc-{i}" for i in range(6)]), text_strategy
), max_size=12), st.integers(1, 4))
def test_any_batching_of_a_write_sequence_gives_one_index(writes, n_batches):
    """Batched writes (repeated keys included) == one write at a time."""
    one_by_one = InvertedIndex()
    for doc_key, text in writes:
        one_by_one.add_document(doc_key, text, title=text)
    batched = InvertedIndex()
    size = -(-len(writes) // n_batches) or 1
    for start in range(0, len(writes), size):
        batched.add_documents(
            (doc_key, text, text)
            for doc_key, text in writes[start:start + size]
        )
    assert canonical(batched) == canonical(one_by_one)
    # Ingest order too: a rewritten key moves to the end.
    assert batched.doc_keys() == one_by_one.doc_keys()


@given(docs_strategy, docs_strategy)
def test_clone_plus_delta_equals_bulk_rebuild(base, delta):
    original = index_of(
        (doc_key, text, "") for doc_key, text in base.items()
    )
    before = canonical(original)
    extended = original.clone()
    extended.add_documents(
        (doc_key, text, "") for doc_key, text in delta.items()
    )
    merged = dict(base)
    merged.update(delta)
    expected = index_of(
        (doc_key, text, "") for doc_key, text in merged.items()
    )
    assert canonical(extended) == canonical(expected)
    # Isolation: the original never observes the delta.
    assert canonical(original) == before


@given(docs_strategy, docs_strategy, st.integers(1, 4))
def test_sharded_extend_equals_full_rebuild(base, delta, n_shards):
    merged = dict(base)
    merged.update(delta)

    extended = ShardedIndex(n_shards=n_shards)
    extended.rebuild(
        (doc_key, text, "") for doc_key, text in base.items()
    )
    # The delta may overlap the base: extend must replace, not dup.
    extended.extend(
        (doc_key, text, "") for doc_key, text in delta.items()
    )
    rebuilt = ShardedIndex(n_shards=n_shards)
    rebuilt.rebuild(
        (doc_key, text, "") for doc_key, text in merged.items()
    )

    assert extended.snapshot.n_docs == rebuilt.snapshot.n_docs
    assert (
        extended.snapshot.shard_sizes()
        == rebuilt.snapshot.shard_sizes()
    )
    for query in WORDS + ['"acme acquired" growth']:
        assert [
            (result.doc_key, result.score)
            for result in extended.search(query, top_k=10)
        ] == [
            (result.doc_key, result.score)
            for result in rebuilt.search(query, top_k=10)
        ]


@given(docs_strategy)
def test_precomputed_engine_terms_equal_inline_tokenization(docs):
    """The annotate-once term stream must match indexing from text."""
    from repro.text.engine import AnnotationEngine

    cached = SearchEngine(text_engine=AnnotationEngine())
    inline = SearchEngine()
    for doc_key, text in docs.items():
        cached.add_document(doc_key, text, title=doc_key)
        inline.add_document(doc_key, text, title=doc_key)
    assert canonical(cached.index) == canonical(inline.index)
    for word in WORDS:
        assert [
            (result.doc_key, result.score)
            for result in cached.search(word, top_k=10)
        ] == [
            (result.doc_key, result.score)
            for result in inline.search(word, top_k=10)
        ]


def assert_doc_postings_are_position_runs(index: InvertedIndex) -> None:
    for term in index.vocab + ["zork"]:
        docs, tf = index.doc_postings(term)
        want_docs, want_tf = doc_runs(index.postings(term)[0])
        assert docs.tolist() == want_docs.tolist()
        assert tf.tolist() == want_tf.tolist()
        assert len(docs) == index.document_frequency(term)


@given(st.lists(st.tuples(
    st.sampled_from([f"doc-{i}" for i in range(6)]), text_strategy
), max_size=12), st.integers(1, 4), docs_strategy)
def test_doc_postings_equal_position_runs_on_every_write_path(
    writes, n_batches, delta
):
    """One at a time, batched, re-added keys (the writes repeat keys),
    clone + delta, a token stream and a save/load round trip."""
    one_by_one = InvertedIndex()
    for doc_key, text in writes:
        one_by_one.add_document(doc_key, text)
        assert_doc_postings_are_position_runs(one_by_one)
    batched = InvertedIndex()
    size = -(-len(writes) // n_batches) or 1
    for start in range(0, len(writes), size):
        batched.add_documents(
            (doc_key, text, "")
            for doc_key, text in writes[start:start + size]
        )
        assert_doc_postings_are_position_runs(batched)
    extended = batched.clone()
    extended.add_documents(
        (doc_key, text, "") for doc_key, text in delta.items()
    )
    assert_doc_postings_are_position_runs(extended)
    assert_doc_postings_are_position_runs(batched)
    final = dict(writes)
    assert_doc_postings_are_position_runs(
        build_flat([(doc_key, text, "") for doc_key, text in final.items()])
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.npz"
        extended.save(path)
        assert_doc_postings_are_position_runs(InvertedIndex.load(path))
