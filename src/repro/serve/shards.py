"""One immutable index per serving generation, partitioned into shards.

The pipeline's :class:`~repro.search.index.InvertedIndex` installs each
write on the same object one attribute at a time, so a serving layer
cannot query it while ingestion writes.  :class:`ShardedIndex` serves
immutable generations instead:

* **one index per generation** — an :class:`IndexSnapshot` holds one
  index nothing writes again: a clone of the pipeline's index taken
  after its write returned (:meth:`ShardedIndex.install` copies no
  array and tokenizes nothing), or one built or extended here.  A query
  searches it once with the corpus's global BM25 statistics, so the
  portal ranks exactly as the pipeline's engine does;
* **atomic swap** — writers build the next generation off to the side
  and install it with one reference assignment, so queries in flight
  keep the generation they started on, and reads never block ingestion
  or observe a half-built index (the zero-downtime re-index contract);
* **shards as partitions** — a shard is the set of document ordinals
  whose key :func:`shard_of` maps to it.  Each of
  :attr:`IndexSnapshot.shards` searches the whole index restricted to
  its ordinals (distributed IDF); the replicated simulation ships these
  views, and merging their top-k gives exactly the unsharded top-k.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.search.engine import SearchEngine, SearchResult
from repro.search.index import InvertedIndex


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


@dataclass(frozen=True, eq=False)
class IndexSnapshot:
    """One immutable generation: a single index and its partitioning.

    Nothing mutates a snapshot after construction; a query resolves
    entirely within the snapshot it grabbed, which is what makes the
    swap tear-free.
    """

    generation: int
    engine: SearchEngine
    n_shards: int

    @property
    def n_docs(self) -> int:
        return self.engine.index.n_docs

    @cached_property
    def partition(self) -> np.ndarray:
        """Each document ordinal's shard."""
        return np.fromiter(
            (shard_of(key, self.n_shards) for key in self.engine.index.keys),
            dtype=np.int64,
            count=self.n_docs,
        )

    def shard_sizes(self) -> list[int]:
        """Documents per shard (the balance the gauges report)."""
        counts = np.bincount(self.partition, minlength=self.n_shards)
        return counts.tolist()

    @cached_property
    def shards(self) -> tuple["ShardView", ...]:
        """One view per partition (the unit a replica serves)."""
        return tuple(
            ShardView(self.engine, self.partition == shard)
            for shard in range(self.n_shards)
        )

    def search(self, query: str, top_k: int = 10) -> list[SearchResult]:
        """Rank the whole generation once, with global statistics."""
        return self.engine.search(query, top_k=top_k)


@dataclass(frozen=True, eq=False)
class ShardView:
    """One shard of a snapshot: its documents, scored globally."""

    engine: SearchEngine
    #: Boolean mask over the snapshot's ordinals: this shard's.
    ordinals: np.ndarray

    def search(self, query: str, top_k: int = 10) -> list[SearchResult]:
        """The snapshot's ranking restricted to this shard's documents."""
        return self.engine.search(query, top_k=top_k, within=self.ordinals)


class ShardedIndex:
    """One index per generation behind an atomic snapshot pointer.

    ``install``, ``rebuild``, ``extend`` and ``restore`` are the
    writers; each may run concurrently with any number of readers.
    Writers are serialized by a lock so generations advance
    monotonically.
    """

    def __init__(
        self, n_shards: int = 4, tracer: AnyTracer | None = None
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._snapshot = IndexSnapshot(0, SearchEngine(), n_shards)
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
        self, engine: SearchEngine, generation: int
    ) -> IndexSnapshot:
        """Install ``engine`` as ``generation``; call with the lock held.

        The index is complete before the snapshot pointer moves, so
        readers see either the old generation or the whole new one.
        """
        snapshot = IndexSnapshot(generation, engine, self.n_shards)
        self._snapshot = snapshot  # the atomic swap
        return snapshot

    def _build(self, documents) -> SearchEngine:
        engine = SearchEngine()
        engine.add_documents(documents)
        return engine

    def install(self, index: InvertedIndex) -> IndexSnapshot:
        """Serve ``index`` — one nothing writes again, such as a clone of
        the pipeline's index taken after its write returned — as the
        next generation."""
        with self._rebuild_lock:
            snapshot = self._swap_in(
                SearchEngine(index), self._snapshot.generation + 1
            )
        self._announce_swap(snapshot)
        return snapshot

    def rebuild(
        self, documents: Iterable[tuple[str, str, str]]
    ) -> IndexSnapshot:
        """Index ``(doc_key, text, title)`` triples into a new generation."""
        with self._rebuild_lock, self.tracer.timed("serve.rebuild_seconds"):
            snapshot = self._swap_in(
                self._build(documents), self._snapshot.generation + 1
            )
        self._announce_swap(snapshot)
        return snapshot

    def extend(
        self, documents: Iterable[tuple[str, str, str]]
    ) -> IndexSnapshot:
        """Delta-build the next generation: previous snapshot + new docs.

        The write goes to a clone of the current index, which shares
        its arrays and merges the delta into new ones, so only the new
        documents are tokenized — the path for continuous monitoring,
        where each revisit adds a few pages to a large standing index.
        """
        with self._rebuild_lock, self.tracer.timed("serve.extend_seconds"):
            current = self._snapshot
            engine = current.engine.clone()
            n_delta = engine.add_documents(documents)
            snapshot = self._swap_in(engine, current.generation + 1)
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
            snapshot = self._swap_in(self._build(documents), generation)
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
