"""Process-sharded ingestion with a deterministic flat-buffer merge.

The gather pipeline's serial annotate→vectorize→index loop is the
ingestion critical path.  This module refactors it into shard
ownership: accepted documents are partitioned by content hash, each
worker owns its shard end-to-end — decode texts from a flat buffer,
tokenize (sentence-cached, see :mod:`repro.text.engine`) and build its
postings slice as numpy arrays — and the parent merges the slices into
one token stream that becomes the
:class:`~repro.search.index.InvertedIndex` directly.

Determinism contract (pinned by the golden snapshot and the
workers-equivalence suites):

* **Dedup stays serial.**  The parent accepts/rejects documents in
  crawl order *before* partitioning, so duplicate resolution can never
  depend on shard interleaving.
* **Shard routing is content-addressed.**  ``shard_of(fingerprint)``
  uses the store's content hash, so the same corpus shards the same
  way on every run and every machine.
* **The merge re-establishes global order.**  Worker-local token
  streams are scattered back into one corpus-ordered stream, term ids
  are renumbered by *global first occurrence* (exactly the order a
  serial build would have discovered them), and the flat postings sort
  is stable — so postings, document frequencies and positions are
  bit-identical to ``workers=1``.

Workers are plain processes (``fork`` or ``spawn`` both work: the
payloads are picklable flat buffers and the worker function is a
module-level callable).  With ``workers=1`` the shard runs inline
against the shared annotation engine, so the sentence splits it caches
are the ones the downstream training and extraction stages read.  A
worker process splits and tokenizes with the engine's module functions
directly: an engine built there would die with the process, caches and
all.  It ships each document's sentence boundaries back beside its
token stream instead, and the parent seeds its engine's split cache
from them, so a document is split once at any worker count.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Sequence

import numpy as np

from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.search.index import InvertedIndex
from repro.text.engine import (
    AnnotationEngine,
    ShippedSplits,
    split_of_spans,
    text_key,
    text_terms,
)
from repro.text.sentences import split_sentences


def shard_of(fingerprint: str, n_shards: int) -> int:
    """Deterministic shard for a content fingerprint (hex sha256)."""
    return int(fingerprint[:8], 16) % n_shards


@dataclass(frozen=True)
class AcceptedDoc:
    """One document the serial dedup pass accepted, pre-partitioning."""

    seq: int  # position in global accept order (== store ordinal on a fresh store)
    doc_id: str
    title: str
    fingerprint: str


@dataclass
class ShardResult:
    """Everything a worker ships back: flat buffers plus accounting."""

    shard_id: int
    vocab: list[str]
    token_terms: "np.ndarray"  # int32 local term ids, doc-major
    doc_ptr: "np.ndarray"  # int64, len n_docs + 1
    first_doc: "np.ndarray"  # per local term: local doc index of first occurrence
    first_pos: "np.ndarray"  # per local term: in-doc position of first occurrence
    sentence_hits: int
    sentence_misses: int
    fallbacks: int
    #: The shard's document splits, shipped back from a worker process
    #: so the parent never re-splits; ``None`` for the inline shard,
    #: which split into the shared engine directly.
    splits: ShippedSplits | None = None


@dataclass
class IngestResult:
    """The merged output of one sharded ingestion."""

    index: InvertedIndex
    shard_docs: list[int]
    sentence_hits: int = 0
    sentence_misses: int = 0
    fallbacks: int = 0
    #: Each worker shard's shipped splits, in shard order.
    splits: list[ShippedSplits] = field(default_factory=list)


def tokenize_shard(
    shard_id: int,
    buffer: bytes,
    offsets: "array[int]",
    engine: AnnotationEngine | None = None,
) -> ShardResult:
    """Tokenize one shard's documents from their flat text buffer.

    Builds the shard-local vocabulary in first-appearance order, the
    doc-major token-id stream and the first-occurrence coordinates the
    merge uses to renumber terms globally.  Each document is read
    through ``engine``'s cached sentence split, and a sentence-level
    memo caches the id array of every distinct sentence — templated
    corpora repeat sentences heavily, so most sentences tokenize
    exactly once per shard.  A document whose sentences do not compose
    (see :func:`~repro.text.engine.terms_compose`) is tokenized whole.

    ``engine`` is the shared annotation engine for the inline
    (``workers=1``) path; a worker process passes ``None``, reads the
    same splits and terms uncached, and ships each document's sentence
    boundaries back (:class:`~repro.text.engine.ShippedSplits`).
    """
    shipped = engine is None
    terms_of = text_terms if shipped else engine.sentence_terms
    keys: list[bytes] = []
    bounds = array("i")
    split_ptr = array("i", [0])
    composes: list[bool] = []
    vocab_ids: dict[str, int] = {}
    sentence_memo: dict[str, "np.ndarray"] = {}
    doc_arrays: list[np.ndarray] = []
    hits = misses = fallbacks = 0
    n_docs = len(offsets) - 1
    for j in range(n_docs):
        data = buffer[offsets[j]:offsets[j + 1]]
        text = data.decode("utf-8")
        if shipped:
            spans = split_sentences(text)
            split = split_of_spans(text, spans)
            keys.append(text_key(data))
            for span in spans:
                bounds.append(span.start)
                bounds.append(span.start + len(span.text))
            split_ptr.append(len(bounds) // 2)
            composes.append(split.composes)
        else:
            split = engine.split(text)
        pieces = split.sentences
        if not split.composes:
            fallbacks += 1
            pieces = (text,)
        parts: list[np.ndarray] = []
        for piece in pieces:
            ids = sentence_memo.get(piece)
            if ids is None:
                misses += 1
                terms = terms_of(piece)
                ids = np.fromiter(
                    (
                        vocab_ids.setdefault(term, len(vocab_ids))
                        for term in terms
                    ),
                    dtype=np.int32,
                    count=len(terms),
                )
                sentence_memo[piece] = ids
            else:
                hits += 1
            parts.append(ids)
        doc_arrays.append(
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
        )
    lengths = np.fromiter(
        (len(arr) for arr in doc_arrays), dtype=np.int64, count=n_docs
    )
    doc_ptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=doc_ptr[1:])
    token_terms = (
        np.concatenate(doc_arrays)
        if doc_arrays
        else np.empty(0, dtype=np.int32)
    )
    n_terms = len(vocab_ids)
    # First occurrence of each term in the shard stream: the sentence
    # memo reuses id arrays, so this is recovered from the stream
    # itself rather than tracked during tokenization.
    first_idx = np.full(n_terms, len(token_terms), dtype=np.int64)
    if len(token_terms):
        np.minimum.at(
            first_idx, token_terms, np.arange(len(token_terms))
        )
    first_doc = np.searchsorted(doc_ptr, first_idx, side="right") - 1
    first_pos = first_idx - doc_ptr[first_doc]
    return ShardResult(
        shard_id=shard_id,
        vocab=list(vocab_ids),
        token_terms=token_terms,
        doc_ptr=doc_ptr,
        first_doc=first_doc,
        first_pos=first_pos,
        sentence_hits=hits,
        sentence_misses=misses,
        fallbacks=fallbacks,
        splits=ShippedSplits(
            keys=keys,
            bounds=np.frombuffer(bounds, dtype=np.int32),
            ptr=np.frombuffer(split_ptr, dtype=np.int32),
            composes=np.array(composes, dtype=bool),
        )
        if shipped
        else None,
    )


def _tokenize_shard_payload(
    payload: tuple[int, bytes, "array[int]"],
) -> ShardResult:
    """Top-level worker entry point (picklable under fork *and* spawn)."""
    shard_id, buffer, offsets = payload
    return tokenize_shard(shard_id, buffer, offsets)


class ShardedIngester:
    """Partition accepted documents by content hash and merge the shards.

    ``workers`` is the number of shard-owning processes; ``1`` runs the
    single shard inline (no subprocess, shared annotation engine).  The
    merge result is identical for any worker count — see the module
    docstring for the contract.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        text_engine: AnnotationEngine | None = None,
        tracer: AnyTracer | None = None,
        mp_start_method: str | None = None,
    ) -> None:
        self.workers = max(1, workers)
        self.text_engine = text_engine
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: ``fork``/``spawn``/``forkserver`` override for the worker
        #: pool; ``None`` uses the platform default.  The spawn path is
        #: exercised in CI so workers never silently depend on fork.
        self.mp_start_method = mp_start_method

    def ingest(
        self,
        store,
        accepted: Sequence[AcceptedDoc],
    ) -> IngestResult:
        """Shard, tokenize and merge the accepted documents.

        ``store`` is the :class:`~repro.gather.store.DocumentStore`
        already holding the accepted documents (the serial dedup pass
        stored them in crawl order); its flat text arena supplies the
        per-shard transport buffers.
        """
        n_shards = min(self.workers, max(1, len(accepted)))
        shards: list[list[AcceptedDoc]] = [[] for _ in range(n_shards)]
        for doc in accepted:
            shards[shard_of(doc.fingerprint, n_shards)].append(doc)
        payloads = []
        for shard_id, docs in enumerate(shards):
            buffer, offsets = store.flat_texts(
                store.ordinal_of(doc.doc_id) for doc in docs
            )
            payloads.append((shard_id, buffer, offsets))
        with self.tracer.span("ingest.shards") as span:
            if self.workers <= 1 or len(accepted) <= 1:
                results = [
                    tokenize_shard(
                        shard_id, buffer, offsets, engine=self.text_engine
                    )
                    for shard_id, buffer, offsets in payloads
                ]
            else:
                context = (
                    get_context(self.mp_start_method)
                    if self.mp_start_method
                    else None
                )
                with ProcessPoolExecutor(
                    max_workers=n_shards, mp_context=context
                ) as pool:
                    results = list(
                        pool.map(_tokenize_shard_payload, payloads)
                    )
            span.add_items(len(accepted))
        with self.tracer.span("ingest.merge"):
            merged = self._merge(shards, results, accepted)
        merged.splits = [r.splits for r in results if r.splits is not None]
        if self.text_engine is not None:
            for splits in merged.splits:
                self.text_engine.seed_splits(splits)
        for shard_id, docs in enumerate(shards):
            result = results[shard_id]
            self.tracer.count(
                f"ingest.shard_docs[{shard_id}]", len(docs)
            )
            self.tracer.count(
                f"ingest.shard_tokens[{shard_id}]",
                len(result.token_terms),
            )
            self.tracer.emit(
                "shard_merged",
                shard=shard_id,
                docs=len(docs),
                tokens=len(result.token_terms),
                terms=len(result.vocab),
            )
        self.tracer.count("ingest.shards_merged", n_shards)
        if merged.fallbacks:
            self.tracer.count(
                "ingest.compose_fallbacks", merged.fallbacks
            )
        return merged

    def _merge(
        self,
        shards: list[list[AcceptedDoc]],
        results: list[ShardResult],
        accepted: Sequence[AcceptedDoc],
    ) -> IngestResult:
        n_docs = len(accepted)
        seq_arrays = [
            np.fromiter(
                (doc.seq for doc in docs), dtype=np.int64, count=len(docs)
            )
            for docs in shards
        ]
        # Base offset of every accept-order seq: documents were accepted
        # contiguously, so seq values are dense 0..n-1 *relative to this
        # gather* — normalize in case the store already held documents.
        seq_base = min(doc.seq for doc in accepted) if accepted else 0
        # Global vocabulary, renumbered by first occurrence in accept
        # order — the exact discovery order of a serial build.
        first_seen: dict[str, tuple[int, int, int]] = {}
        for docs, result, seqs in zip(shards, results, seq_arrays):
            if not docs:
                continue
            for tid, term in enumerate(result.vocab):
                key = (
                    int(seqs[result.first_doc[tid]]),
                    int(result.first_pos[tid]),
                    tid,
                )
                known = first_seen.get(term)
                if known is None or key < known:
                    first_seen[term] = key
        vocab = sorted(first_seen, key=first_seen.__getitem__)
        term_ids = {term: tid for tid, term in enumerate(vocab)}
        # Scatter each shard's doc-major stream back into accept order.
        lengths = np.zeros(n_docs, dtype=np.int64)
        for result, seqs in zip(results, seq_arrays):
            if len(seqs):
                lengths[seqs - seq_base] = np.diff(result.doc_ptr)
        doc_ptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=doc_ptr[1:])
        token_terms = np.empty(int(doc_ptr[-1]), dtype=np.int32)
        for result, seqs in zip(results, seq_arrays):
            if not len(seqs):
                continue
            remap = np.fromiter(
                (term_ids[term] for term in result.vocab),
                dtype=np.int32,
                count=len(result.vocab),
            )
            shard_lengths = np.diff(result.doc_ptr)
            targets = np.repeat(
                doc_ptr[seqs - seq_base] - result.doc_ptr[:-1],
                shard_lengths,
            ) + np.arange(len(result.token_terms), dtype=np.int64)
            token_terms[targets] = remap[result.token_terms]
        index = InvertedIndex.from_token_stream(
            vocab=vocab,
            doc_keys=[doc.doc_id for doc in accepted],
            titles=[doc.title for doc in accepted],
            token_terms=token_terms,
            doc_ptr=doc_ptr,
        )
        return IngestResult(
            index=index,
            shard_docs=[len(docs) for docs in shards],
            sentence_hits=sum(r.sentence_hits for r in results),
            sentence_misses=sum(r.sentence_misses for r in results),
            fallbacks=sum(r.fallbacks for r in results),
        )
