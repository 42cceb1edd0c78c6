"""Sharded, snapshot-swapped search index for concurrent serving.

The batch pipeline owns one :class:`~repro.search.index.InvertedIndex`.
Its arrays are immutable, but a write installs the next set on the same
object one attribute at a time, so a serving layer cannot query it while
ingestion writes.  :class:`ShardedIndex` serves from a separate set of
indexes instead:

* **sharding** — documents are partitioned by a stable hash of the doc
  key into N :class:`~repro.search.engine.SearchEngine` shards, so a
  rebuild parallelizes naturally and per-shard postings stay small;
* **immutable snapshots** — readers only ever see an
  :class:`IndexSnapshot`, a frozen generation of all N shards.
  :meth:`ShardedIndex.rebuild` constructs the next generation off to
  the side and installs it with one atomic reference assignment, so
  queries in flight keep the generation they started on and new
  queries see the new one.  Reads never block ingestion and never
  observe a half-built index (the zero-downtime re-index contract the
  serve tests pin down).

BM25 statistics (document frequency, average length) are per shard,
not global — with hash partitioning the shards are statistically
similar, so merged rankings track the unsharded engine closely; the
exact same *document set* is returned either way.
"""

from __future__ import annotations

import hashlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.search.engine import SearchEngine, SearchResult
from repro.text.engine import AnnotationEngine


def shard_of(doc_key: str, n_shards: int) -> int:
    """Stable shard assignment: sha256 of the doc key, mod N.

    Uses a cryptographic digest rather than :func:`hash` so the
    placement is identical across processes and Python versions
    (``PYTHONHASHSEED`` never reshuffles a corpus).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    digest = hashlib.sha256(doc_key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_shards


@dataclass(frozen=True)
class IndexSnapshot:
    """One immutable generation of the sharded index.

    Holds every shard engine of a single rebuild.  Nothing mutates a
    snapshot after construction; a query resolves entirely within the
    snapshot it grabbed, which is what makes the swap tear-free.
    """

    generation: int
    engines: tuple[SearchEngine, ...]
    n_docs: int

    @property
    def n_shards(self) -> int:
        return len(self.engines)

    def shard_sizes(self) -> list[int]:
        """Documents per shard (the balance the bench reports)."""
        return [engine.index.n_docs for engine in self.engines]

    def search(self, query: str, top_k: int = 10) -> list[SearchResult]:
        """Scatter the query to every shard and merge the rankings."""
        if top_k <= 0:
            return []
        merged: list[SearchResult] = []
        for engine in self.engines:
            merged.extend(engine.search(query, top_k=top_k))
        merged.sort(key=lambda result: (-result.score, result.doc_key))
        return merged[:top_k]


def _empty_snapshot() -> IndexSnapshot:
    return IndexSnapshot(generation=0, engines=(SearchEngine(),), n_docs=0)


class ShardedIndex:
    """N hash-partitioned engines behind an atomic snapshot pointer.

    ``rebuild``, ``extend`` and ``restore`` are the writers; each may run
    concurrently with any number of readers.  Writers are serialized by
    a lock so generations advance monotonically.
    """

    def __init__(
        self,
        n_shards: int = 4,
        tracer: AnyTracer | None = None,
        text_engine: AnnotationEngine | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Shared annotate-once engine: every rebuild re-tokenizes the
        #: same document texts, so with the pipeline's engine attached a
        #: full rebuild is served from the content-keyed term cache.
        self.text_engine = text_engine
        self._snapshot = _empty_snapshot()
        self._rebuild_lock = threading.Lock()

    # -- reads -----------------------------------------------------------------

    @property
    def snapshot(self) -> IndexSnapshot:
        """The current generation (atomic reference read)."""
        return self._snapshot

    @property
    def generation(self) -> int:
        return self._snapshot.generation

    def search(self, query: str, top_k: int = 10) -> list[SearchResult]:
        """Search the current snapshot (grabbed once, used throughout)."""
        return self._snapshot.search(query, top_k=top_k)

    # -- writes ----------------------------------------------------------------

    def _swap_in(
        self,
        documents: Iterable[tuple[str, str, str]],
        generation: int,
        base: tuple[SearchEngine, ...] = (),
    ) -> tuple[IndexSnapshot, int]:
        """Build a generation of ``base`` plus ``documents``; swap it in.

        Documents are partitioned by :func:`shard_of` and each touched
        shard takes one batched write, on a clone of its ``base`` engine
        — or on a fresh engine when ``base`` does not hold ``n_shards``
        engines (a rebuild, or extending generation 0).  Untouched base
        shards carry over as they are.  The engines are complete before
        the snapshot pointer moves, so readers see either the old
        generation or the whole new one, never a mix.  Returns the
        snapshot and the number of documents written.  Call with the
        rebuild lock held.
        """
        by_shard: dict[int, list[tuple[str, str, str]]] = defaultdict(list)
        for document in documents:
            by_shard[shard_of(document[0], self.n_shards)].append(document)
        fresh = len(base) != self.n_shards
        engines = (
            [
                SearchEngine(text_engine=self.text_engine)
                for _ in range(self.n_shards)
            ]
            if fresh
            else list(base)
        )
        for shard, delta in by_shard.items():
            if not fresh:
                engines[shard] = engines[shard].clone()
            engines[shard].add_documents(delta)
        snapshot = IndexSnapshot(
            generation=generation,
            engines=tuple(engines),
            n_docs=sum(engine.index.n_docs for engine in engines),
        )
        self._snapshot = snapshot  # the atomic swap
        return snapshot, sum(len(delta) for delta in by_shard.values())

    def rebuild(
        self, documents: Iterable[tuple[str, str, str]]
    ) -> IndexSnapshot:
        """Index ``(doc_key, text, title)`` triples into a new generation."""
        with self._rebuild_lock, self.tracer.timed("serve.rebuild_seconds"):
            snapshot, _ = self._swap_in(
                documents, self._snapshot.generation + 1
            )
        self._announce_swap(snapshot)
        return snapshot

    def extend(
        self, documents: Iterable[tuple[str, str, str]]
    ) -> IndexSnapshot:
        """Delta-build the next generation: previous snapshot + new docs.

        Only the shards that receive documents are cloned (a
        :meth:`~repro.search.index.InvertedIndex.clone` shares the
        arrays, and the write merges the delta into them); shards with
        no new documents carry over to the new generation as-is.  Readers
        get the same tear-free swap as :meth:`rebuild` without
        re-tokenizing the corpus — the path for continuous monitoring,
        where each revisit adds a few pages to a large standing index.
        """
        with self._rebuild_lock, self.tracer.timed("serve.extend_seconds"):
            current = self._snapshot
            snapshot, n_delta = self._swap_in(
                documents, current.generation + 1, current.engines
            )
        self.tracer.count("serve.docs_delta_indexed", n_delta)
        self._announce_swap(snapshot)
        return snapshot

    def restore(
        self,
        documents: Iterable[tuple[str, str, str]],
        generation: int,
    ) -> IndexSnapshot:
        """Rebuild at an *explicit* generation (checkpoint recovery).

        For a caller that re-indexes a checkpointed document set and
        must land on the generation number the checkpoint recorded, so
        that later :meth:`extend` deltas advance the counter to exactly
        what an uninterrupted run would have reached.
        """
        if generation < 0:
            raise ValueError("generation must be >= 0")
        with self._rebuild_lock:
            snapshot, _ = self._swap_in(documents, generation)
        self._announce_swap(snapshot)
        return snapshot

    def _announce_swap(self, snapshot: IndexSnapshot) -> None:
        self.tracer.count("serve.snapshot_swaps")
        self.tracer.emit(
            "snapshot_swapped",
            generation=snapshot.generation,
            n_docs=snapshot.n_docs,
            n_shards=snapshot.n_shards,
        )

    def rebuild_from_store(self, store) -> IndexSnapshot:
        """Re-index a :class:`~repro.gather.store.DocumentStore`."""
        return self.rebuild(
            (document.doc_id, document.text, document.title)
            for document in store
        )
