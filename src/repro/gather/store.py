"""Document store for the data-gathering component.

ETAP's data-gathering component [2] accumulates documents from crawls and
proprietary corpora into a collection *D*.  This store provides the
database half of that component: content-hash deduplication (crawls
re-fetch the same page; mirrors host identical articles), stable insert
order, lookup by id/url, and JSONL persistence so a gathered collection
can be saved and reloaded between pipeline stages.

Storage layout
--------------

Document text — by far the largest payload — is held in a single
contiguous UTF-8 arena (``bytearray``) with an ``array('Q')`` of slice
offsets, not as per-document Python string objects.  Ids, urls and
titles stay as ordinal-indexed lists, and the common metadata shape
(``doc_type`` / ``published_day``) is stored columnar with a raw-dict
overflow for anything else.  :class:`StoredDocument` values handed back
by :meth:`DocumentStore.get` / iteration are materialized lazily from
the arena.  The flat layout keeps memory-per-doc low at 100k+ documents
and lets sharded ingestion ship a worker's slice of the corpus between
processes as two flat buffers (:meth:`DocumentStore.flat_texts`)
instead of a pickled object graph.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


@dataclass(frozen=True)
class StoredDocument:
    """A document as held by the store."""

    doc_id: str
    url: str
    title: str
    text: str
    metadata: dict = field(default_factory=dict)


def content_hash(text: str) -> str:
    """Stable fingerprint of document content for deduplication."""
    normalized = " ".join(text.split()).lower()
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


class DuplicateDocumentError(ValueError):
    """Raised by :meth:`DocumentStore.add` in strict mode on duplicates."""


class DocumentStore:
    """In-memory document collection with dedup and JSONL persistence.

    Backed by a flat text arena (see module docstring); the public
    surface still speaks :class:`StoredDocument`.
    """

    def __init__(self) -> None:
        self._arena = bytearray()
        self._offsets = array("Q", [0])
        self._ids: list[str] = []
        self._urls: list[str] = []
        self._titles: list[str] = []
        # Running sys.getsizeof total of every id, url and title, so
        # memory_bytes() need not walk the three string columns.
        self._string_bytes = 0
        # Columnar metadata for the standard {"doc_type", "published_day"}
        # shape; anything else keeps its raw dict in the overflow map.
        self._doc_types: list[str | None] = []
        self._days: list[int | None] = []
        self._meta_overflow: dict[int, dict] = {}
        self._by_id: dict[str, int] = {}
        self._by_url: dict[str, int] = {}
        self._hashes: dict[str, int] = {}
        # Point lookups hand out one canonical view per document (so
        # callers that annotate the returned metadata in place observe
        # their own writes on later gets); bulk iteration materializes
        # transient views and never populates this.
        self._materialized: dict[int, StoredDocument] = {}

    # -- writes ---------------------------------------------------------------

    def add(
        self,
        document: StoredDocument,
        strict: bool = False,
    ) -> bool:
        """Add a document; returns True if stored, False if deduplicated.

        Duplicates (same id, same url, or same content hash) are skipped,
        or raise :class:`DuplicateDocumentError` when ``strict``.
        """
        stored, _, _ = self.try_add(document, strict=strict)
        return stored

    def try_add(
        self,
        document: StoredDocument,
        strict: bool = False,
    ) -> tuple[bool, int, str | None]:
        """Like :meth:`add`, but reports the outcome in full.

        Returns ``(stored, ordinal, fingerprint)`` where ``ordinal`` is
        the document's position in insert order (``-1`` if deduplicated)
        and ``fingerprint`` is the :func:`content_hash` — ``None`` when
        the id or url already deduplicated the document, in which case
        the hash is never computed.  The sharded ingester reuses the
        fingerprint for shard routing so content is hashed exactly once.
        """
        duplicate_of = None
        fingerprint: str | None = None
        if document.doc_id in self._by_id:
            duplicate_of = document.doc_id
        elif document.url and document.url in self._by_url:
            duplicate_of = self._ids[self._by_url[document.url]]
        else:
            # Only hash content once the cheap id/url checks have passed:
            # crawl re-fetches dedupe on url long before the sha256.
            fingerprint = content_hash(document.text)
            if fingerprint in self._hashes:
                duplicate_of = self._ids[self._hashes[fingerprint]]
        if duplicate_of is not None:
            if strict:
                raise DuplicateDocumentError(
                    f"{document.doc_id} duplicates {duplicate_of}"
                )
            return False, -1, fingerprint
        ordinal = len(self._ids)
        self._arena += document.text.encode("utf-8")
        self._offsets.append(len(self._arena))
        self._urls.append(document.url)
        self._titles.append(document.title)
        self._append_metadata(ordinal, document.metadata)
        self._by_id[document.doc_id] = ordinal
        if document.url:
            self._by_url[document.url] = ordinal
        self._hashes[fingerprint] = ordinal  # type: ignore[index]
        self._string_bytes += (
            sys.getsizeof(document.doc_id)
            + sys.getsizeof(document.url)
            + sys.getsizeof(document.title)
        )
        # Appended last: concurrent readers snapshot len(_ids), so a
        # document becomes visible only once every column is written.
        self._ids.append(document.doc_id)
        return True, ordinal, fingerprint

    def _append_metadata(self, ordinal: int, metadata: dict) -> None:
        doc_type = metadata.get("doc_type")
        day = metadata.get("published_day")
        standard = (
            set(metadata) <= {"doc_type", "published_day"}
            and (doc_type is None or isinstance(doc_type, str))
            and (day is None or (isinstance(day, int) and not isinstance(day, bool)))
            and all(metadata[key] is not None for key in metadata)
        )
        if standard:
            self._doc_types.append(doc_type)
            self._days.append(day)
        else:
            self._doc_types.append(None)
            self._days.append(None)
            self._meta_overflow[ordinal] = metadata

    # -- reads ------------------------------------------------------------------

    def _metadata_at(self, ordinal: int) -> dict:
        overflow = self._meta_overflow.get(ordinal)
        if overflow is not None:
            return overflow
        metadata: dict = {}
        doc_type = self._doc_types[ordinal]
        if doc_type is not None:
            metadata["doc_type"] = doc_type
        day = self._days[ordinal]
        if day is not None:
            metadata["published_day"] = day
        return metadata

    def text_at(self, ordinal: int) -> str:
        """Decode one document's text straight from the arena."""
        start, end = self._offsets[ordinal], self._offsets[ordinal + 1]
        return self._arena[start:end].decode("utf-8")

    def _materialize(self, ordinal: int) -> StoredDocument:
        canonical = self._materialized.get(ordinal)
        if canonical is not None:
            return canonical
        return StoredDocument(
            doc_id=self._ids[ordinal],
            url=self._urls[ordinal],
            title=self._titles[ordinal],
            text=self.text_at(ordinal),
            metadata=self._metadata_at(ordinal),
        )

    def _get_canonical(self, ordinal: int) -> StoredDocument:
        document = self._materialized.get(ordinal)
        if document is None:
            document = self._materialized.setdefault(
                ordinal, self._materialize(ordinal)
            )
        return document

    def get(self, doc_id: str) -> StoredDocument:
        return self._get_canonical(self._by_id[doc_id])

    def ordinal_of(self, doc_id: str) -> int:
        """Insert-order position of a stored document."""
        return self._by_id[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[StoredDocument]:
        # Iterate over a snapshot of the ordinal range: the serve layer
        # re-indexes the store while a crawl may still be adding, and an
        # iterator over a live tail would see a moving end.  Columns are
        # append-only, so ordinals below the snapshot never change.
        count = len(self._ids)
        return (self._materialize(ordinal) for ordinal in range(count))

    def doc_ids(self, start: int = 0) -> list[str]:
        """Ids in insert order, from the ``start``-th stored document."""
        return self._ids[start:]

    # -- flat transport --------------------------------------------------------

    def flat_texts(self, ordinals: Iterable[int]) -> tuple[bytes, array]:
        """Pack the given documents' texts into one flat buffer.

        Returns ``(buffer, offsets)`` where ``offsets`` is an
        ``array('Q')`` of ``len(ordinals) + 1`` slice boundaries.  This
        is the cross-process transport for sharded ingestion: a worker
        receives its shard as two picklable flat buffers and decodes
        texts on demand, never a list of per-document objects.
        """
        packed = bytearray()
        offsets = array("Q", [0])
        for ordinal in ordinals:
            start, end = self._offsets[ordinal], self._offsets[ordinal + 1]
            packed += self._arena[start:end]
            offsets.append(len(packed))
        return bytes(packed), offsets

    def memory_bytes(self) -> int:
        """Approximate resident size of the stored collection.

        Counts the text arena, the offset array, and the per-document
        id/url/title/metadata columns.  Tracked by the ingest bench as
        memory-per-doc.  The column strings are summed as they are
        added; the overflow dicts are sized on call, since callers may
        mutate them in place.
        """
        total = sys.getsizeof(self._arena)
        total += sys.getsizeof(self._offsets)
        total += self._string_bytes
        for column in (self._ids, self._urls, self._titles):
            total += sys.getsizeof(column)
        total += sys.getsizeof(self._doc_types) + sys.getsizeof(self._days)
        total += sum(sys.getsizeof(meta) for meta in self._meta_overflow.values())
        return total

    # -- persistence --------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> None:
        """Write the collection to a JSON-lines file."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for document in self:
                record = {
                    "doc_id": document.doc_id,
                    "url": document.url,
                    "title": document.title,
                    "text": document.text,
                    "metadata": document.metadata,
                }
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "DocumentStore":
        """Load a collection previously written by :meth:`save_jsonl`."""
        store = cls()
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                store.add(
                    StoredDocument(
                        doc_id=record["doc_id"],
                        url=record.get("url", ""),
                        title=record.get("title", ""),
                        text=record["text"],
                        metadata=record.get("metadata", {}),
                    )
                )
        return store
