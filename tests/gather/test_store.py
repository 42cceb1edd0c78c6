"""Document-store tests: dedup, lookup, ordering, persistence."""

from __future__ import annotations

import sys

import pytest

from repro.gather.store import (
    DocumentStore,
    DuplicateDocumentError,
    StoredDocument,
    content_hash,
)


def doc(doc_id="d1", url="http://a/x", text="some text", title="t"):
    return StoredDocument(doc_id=doc_id, url=url, title=title, text=text)


def walked_memory_bytes(store: DocumentStore) -> int:
    """``memory_bytes`` recomputed by walking every column."""
    total = sys.getsizeof(store._arena) + sys.getsizeof(store._offsets)
    for column in (store._ids, store._urls, store._titles):
        total += sys.getsizeof(column)
        total += sum(sys.getsizeof(value) for value in column)
    total += sys.getsizeof(store._doc_types) + sys.getsizeof(store._days)
    total += sum(
        sys.getsizeof(meta) for meta in store._meta_overflow.values()
    )
    return total


class TestContentHash:
    def test_whitespace_insensitive(self):
        assert content_hash("a  b\nc") == content_hash("a b c")

    def test_case_insensitive(self):
        assert content_hash("Hello World") == content_hash("hello world")

    def test_different_content_differs(self):
        assert content_hash("alpha") != content_hash("beta")


class TestAdd:
    def test_add_and_get(self):
        store = DocumentStore()
        assert store.add(doc())
        assert store.get("d1").text == "some text"

    def test_duplicate_id_skipped(self):
        store = DocumentStore()
        store.add(doc())
        assert not store.add(doc(text="different"))
        assert len(store) == 1

    def test_duplicate_url_skipped(self):
        store = DocumentStore()
        store.add(doc())
        assert not store.add(doc(doc_id="d2", text="different"))

    def test_duplicate_content_skipped(self):
        store = DocumentStore()
        store.add(doc())
        assert not store.add(
            doc(doc_id="d2", url="http://b/y", text="SOME   text")
        )

    def test_strict_mode_raises(self):
        store = DocumentStore()
        store.add(doc())
        with pytest.raises(DuplicateDocumentError):
            store.add(doc(), strict=True)

    def test_empty_url_never_collides(self):
        store = DocumentStore()
        store.add(doc(doc_id="a", url="", text="first"))
        assert store.add(doc(doc_id="b", url="", text="second"))


class TestAccess:
    def test_contains(self):
        store = DocumentStore()
        store.add(doc())
        assert "d1" in store
        assert "d2" not in store

    def test_iteration_preserves_insert_order(self):
        store = DocumentStore()
        for i in range(5):
            store.add(doc(doc_id=f"d{i}", url=f"http://a/{i}",
                          text=f"text {i}"))
        assert [d.doc_id for d in store] == [f"d{i}" for i in range(5)]

    def test_doc_ids(self):
        store = DocumentStore()
        store.add(doc())
        assert store.doc_ids() == ["d1"]

    def test_missing_get_raises(self):
        with pytest.raises(KeyError):
            DocumentStore().get("nope")

    def test_iteration_survives_concurrent_add(self):
        """The serve layer re-indexes from the store while gathering
        may still append: iteration works over a snapshot of the id
        list, so adds during a sweep never raise or skip-ahead."""
        store = DocumentStore()
        for i in range(50):
            store.add(doc(doc_id=f"d{i}", url=f"http://a/{i}",
                          text=f"text {i}"))
        seen = []
        for i, document in enumerate(store):
            seen.append(document.doc_id)
            if i % 10 == 0:  # mutate mid-iteration
                store.add(doc(
                    doc_id=f"late{i}", url=f"http://late/{i}",
                    text=f"late text {i}",
                ))
        # The sweep sees exactly the ids present when it started.
        assert seen == [f"d{i}" for i in range(50)]
        assert len(store) == 55

    def test_iteration_snapshot_under_threads(self):
        import threading

        store = DocumentStore()
        for i in range(200):
            store.add(doc(doc_id=f"d{i:03d}", url=f"http://a/{i}",
                          text=f"text {i}"))
        errors = []

        def writer():
            for i in range(200):
                try:
                    store.add(doc(
                        doc_id=f"w{i:03d}", url=f"http://w/{i}",
                        text=f"writer text {i}",
                    ))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        def sweeper():
            for _ in range(20):
                try:
                    ids = [document.doc_id for document in store]
                    # Prefix stability: the seed docs always lead.
                    assert ids[:200] == [f"d{i:03d}" for i in range(200)]
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=sweeper) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        store = DocumentStore()
        store.add(doc(doc_id="a", url="http://a", text="first text"))
        store.add(StoredDocument(
            doc_id="b", url="http://b", title="t2", text="second text",
            metadata={"doc_type": "ma_news"},
        ))
        path = tmp_path / "docs.jsonl"
        store.save_jsonl(path)
        loaded = DocumentStore.load_jsonl(path)
        assert len(loaded) == 2
        assert loaded.get("b").metadata == {"doc_type": "ma_news"}
        assert [d.doc_id for d in loaded] == ["a", "b"]

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(
            '{"doc_id": "a", "text": "hello"}\n\n'
            '{"doc_id": "b", "text": "world"}\n'
        )
        loaded = DocumentStore.load_jsonl(path)
        assert len(loaded) == 2


class TestFlatBuffer:
    """The contiguous-arena surface the sharded ingester rides on."""

    def fill(self):
        store = DocumentStore()
        texts = ["alpha bravo", "", "charlie delta echo", "foxtrot"]
        for i, text in enumerate(texts):
            store.add(doc(doc_id=f"d{i}", url=f"http://a/{i}", text=text))
        return store, texts

    def test_text_at_and_ordinal_of(self):
        store, texts = self.fill()
        for i, text in enumerate(texts):
            ordinal = store.ordinal_of(f"d{i}")
            assert store.text_at(ordinal) == text

    def test_flat_texts_roundtrip_any_subset(self):
        store, texts = self.fill()
        ordinals = [store.ordinal_of("d2"), store.ordinal_of("d0")]
        buffer, offsets = store.flat_texts(ordinals)
        assert len(offsets) == len(ordinals) + 1
        decoded = [
            buffer[offsets[i]:offsets[i + 1]].decode("utf-8")
            for i in range(len(ordinals))
        ]
        assert decoded == [texts[2], texts[0]]

    def test_memory_bytes_grows_with_content(self):
        store = DocumentStore()
        empty = store.memory_bytes()
        store.add(doc(text="x" * 10_000))
        assert store.memory_bytes() >= empty + 10_000

    def test_memory_bytes_equals_a_walk_of_the_columns(self, tmp_path):
        store = DocumentStore()
        assert store.memory_bytes() == walked_memory_bytes(store)
        for i in range(40):
            store.add(doc(
                doc_id=f"d{i}", url=f"http://a/{i}", title="t" * i,
                text=f"text number {i}",
            ))
        store.add(StoredDocument(
            doc_id="odd", url="", title="\u00e9t\u00e9", text="odd one",
            metadata={"tags": ["x"]},
        ))
        # Rejected on id, url and content: nothing is counted.
        store.add(doc(doc_id="d3", url="http://new", text="fresh"))
        store.add(doc(doc_id="new1", url="http://a/4", text="fresh"))
        store.add(doc(doc_id="new2", url="http://new", text="text number 5"))
        assert len(store) == 41
        assert store.memory_bytes() == walked_memory_bytes(store)
        # Overflow metadata mutated in place is still sized on call.
        store.get("odd").metadata["tags"] = ["x"] * 100
        store.get("odd").metadata.update({f"k{i}": i for i in range(20)})
        assert store.memory_bytes() == walked_memory_bytes(store)
        path = tmp_path / "docs.jsonl"
        store.save_jsonl(path)
        loaded = DocumentStore.load_jsonl(path)
        assert loaded.memory_bytes() == walked_memory_bytes(loaded)

    def test_try_add_returns_fingerprint_only_when_hashed(self):
        store = DocumentStore()
        added, ordinal, fingerprint = store.try_add(doc())
        assert added and ordinal == 0
        assert fingerprint == content_hash("some text")
        # id duplicate: rejected before hashing, no fingerprint.
        added, ordinal, fingerprint = store.try_add(doc(text="other"))
        assert (added, ordinal, fingerprint) == (False, -1, None)

    def test_metadata_shapes_survive_roundtrip(self, tmp_path):
        store = DocumentStore()
        standard = {"doc_type": "ma_news", "published_day": 7}
        overflow = {"doc_type": "ma_news", "tags": ["a", "b"]}
        store.add(StoredDocument(
            doc_id="a", url="http://a", title="t", text="one",
            metadata=dict(standard),
        ))
        store.add(StoredDocument(
            doc_id="b", url="http://b", title="t", text="two",
            metadata=dict(overflow),
        ))
        assert store.get("a").metadata == standard
        assert store.get("b").metadata == overflow
        path = tmp_path / "docs.jsonl"
        store.save_jsonl(path)
        loaded = DocumentStore.load_jsonl(path)
        assert loaded.get("a").metadata == standard
        assert loaded.get("b").metadata == overflow

    def test_get_returns_canonical_mutable_view(self):
        """Callers patch metadata in place (the alert-horizon tests
        do); every access path must observe the same dict."""
        store = DocumentStore()
        store.add(StoredDocument(
            doc_id="a", url="http://a", title="t", text="one",
            metadata={"published_day": 3},
        ))
        store.get("a").metadata.pop("published_day")
        assert store.get("a").metadata == {}
        assert [d.metadata for d in store] == [{}]
