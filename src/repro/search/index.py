"""Inverted index over the synthetic web.

The index answers both ranked bag-of-words queries and exact phrase
queries (the paper's *smart queries* such as ``"new ceo"`` and
``"IBM Daksh"`` are phrase queries) from one flat numpy layout:

* ``term_ids`` — term -> id, in first-appearance order;
* ``keys``/``titles``/``lengths`` — per document ordinal, in ingest
  order, with the total length cached so the average is O(1);
* ``sorted_doc``/``sorted_pos``/``term_starts`` — every token,
  term-major: one term's postings are one contiguous slice, sorted by
  document ordinal and then position;
* ``run_doc``/``run_tf``/``run_starts`` — the doc-level postings, one
  ``(document, term frequency)`` run per term and document, term-major,
  derived from the above at write time; a term's document frequency is
  the length of its slice.

Ranked queries read the doc-level postings.  A phrase query turns its
terms' position postings into sorted ``doc << 32 | position`` keys and
intersects them with ``np.searchsorted``, starting from the rarest term.
Its matches are sorted ordinals, so the search engine scores a query
with phrases only at the documents that hold them: it looks the phrase
terms' doc-level postings up at those candidates with
``np.searchsorted``, and each loose term up in its memoized entry (see
below).  A query without phrases adds every posting into one dense
per-ordinal array.

A phrase query's per-generation work is kept in ``phrase_memo``, a
:class:`PhraseMemo`, with two kinds of entry.  A *phrase clause* (the
query's candidates, their phrase bonus and the BM25 sum of the phrase
terms there) depends only on the phrases and the arrays.  A *loose
term's entry* maps each document holding the term to the term's BM25
contribution there, computed over its whole doc-level posting list, so
the engine adds a loose term at a query's few candidates with dict
lookups; building it costs O(df) once per generation.  Every write
replaces the memo with an empty one (never clears it in place), so a
clone shares its source's memo exactly as long as it shares its
arrays.  The memo counts a clause as ``max(1, candidates)`` cells and a
term as ``max(1, df)``, and refuses an entry that would take that count
past the index's doc-level posting count; the engine then starts a new
memo, so it stays O(index) whatever the traffic.

The arrays are never written in place.  A write batch
(:meth:`InvertedIndex.add_documents`) stable-sorts only its own tokens
by term and inserts them at the end of each term's slice: new documents
take the next ordinals, so every slice stays sorted and no token already
indexed is sorted again.  A re-added key replaces its document (the old
tokens are masked out first and the document moves to the end of the
ingest order, as if it were removed and added again); the renumbering
is monotone, so masking keeps every slice sorted too.  Bulk builds are
the same merge into an empty index.  :meth:`InvertedIndex.clone`
therefore shares the arrays, so the serve layer builds "previous
generation + delta" indexes at the cost of the merge, with no
re-tokenization.  Sharded ingestion hands over its merged token stream
directly (:meth:`InvertedIndex.from_token_stream`).

Tokenization can be delegated to a shared
:class:`~repro.text.engine.AnnotationEngine` by passing its
``index_terms`` as ``terms_of``; the engine guarantees each document is
tokenized at most once across gather, serve and rebuild.
"""

from __future__ import annotations

import copy
import threading
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.text.tokenizer import tokenize_words


def normalize_term(term: str) -> str:
    """Case-fold a query/document term for indexing."""
    return term.lower()


def doc_runs(docs: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """Distinct values of a sorted array and how often each occurs."""
    starts = np.flatnonzero(np.diff(docs, prepend=-1))
    return docs[starts], np.diff(starts, append=len(docs))


def _token_coords(lengths: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """Doc ordinal (from 0) and in-document position of each token of a
    doc-major stream whose documents have ``lengths`` tokens."""
    docs = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    pos = np.arange(len(docs), dtype=np.int64)
    pos -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    return docs, pos.astype(np.uint32)


def _frozen(array: "np.ndarray") -> "np.ndarray":
    array.flags.writeable = False
    return array


def _kept_starts(starts: "np.ndarray", keep: "np.ndarray") -> "np.ndarray":
    """Slice starts of a term-major array once rows with a false
    ``keep`` are dropped."""
    return np.concatenate(([0], np.cumsum(keep)))[starts]


def _append_to_slices(starts, columns, terms, rows, n_terms):
    """Term-major ``columns`` with ``rows`` added at the end of their
    terms' slices.

    Term ``t``'s slice is ``starts[t]:starts[t + 1]``; ``terms`` holds
    each new row's term, ascending, and may name terms past the old
    ones (up to ``n_terms``).  Returns the new columns, dtypes kept,
    and their slice starts.
    """
    starts = np.concatenate(
        (starts, np.full(n_terms + 1 - len(starts), starts[-1]))
    )
    if starts[-1]:
        at = starts[1:][terms]
        merged = [
            _frozen(np.insert(column, at, row))
            for column, row in zip(columns, rows)
        ]
    else:
        # A bulk build: the new rows, made fresh, are the columns.
        # np.insert would copy them and hold index temporaries, which
        # lifts a 5,000-page build's peak RSS by about 10%.
        merged = [
            _frozen(row.astype(column.dtype, copy=False))
            for column, row in zip(columns, rows)
        ]
    grown = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(np.bincount(terms, minlength=n_terms), out=grown[1:])
    return merged, starts + grown


class PhraseMemo(dict):
    """What phrase queries evaluate once per index generation.

    A phrase clause, keyed by the normalized phrases, is ``(candidates,
    bonus, partial scores)``: three tuples of Python values, one item
    per candidate ordinal.  A loose term's entry, keyed by the
    normalized term, is ``{ordinal: BM25 contribution}`` over every
    document holding the term.  ``cells`` sums ``max(1, size)`` over the
    entries (a clause's size is its candidate count, a term's its
    document frequency) and never exceeds ``budget``, the generation's
    doc-level posting count.
    """

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget = budget
        self.cells = 0
        self._lock = threading.Lock()

    def add(self, key, entry, size: int) -> bool:
        """Keep ``entry``, of ``size`` items, under ``key``; False,
        keeping nothing, when it would take the memo past its budget."""
        cells = max(1, size)
        with self._lock:
            if key in self:
                # A concurrent miss stored an equal entry first.
                return True
            if self.cells + cells > self.budget:
                return False
            self[key] = entry
            self.cells += cells
        return True


class InvertedIndex:
    """Positional inverted index with batched, replacing writes."""

    def __init__(self) -> None:
        self.term_ids: dict[str, int] = {}
        self.keys: list[str] = []
        self._ordinals: dict[str, int] = {}
        self.titles: list[str] = []
        self.lengths = _frozen(np.zeros(0, dtype=np.int64))
        self.total_terms = 0
        # Clones share these arrays, and postings() hands out views.
        self.sorted_doc = _frozen(np.zeros(0, dtype=np.int32))
        self.sorted_pos = _frozen(np.zeros(0, dtype=np.uint32))
        self.term_starts = np.zeros(1, dtype=np.int64)
        self.run_doc = _frozen(np.zeros(0, dtype=np.int32))
        self.run_tf = _frozen(np.zeros(0, dtype=np.int32))
        self.run_starts = np.zeros(1, dtype=np.int64)
        self.phrase_memo = PhraseMemo(0)

    def _merge(
        self, term_ids, keys, titles, lengths, terms, docs, pos, replaced=()
    ) -> None:
        """Install the next arrays: the ordinals ``replaced`` dropped,
        then documents ``keys`` appended with their tokens.

        ``terms``/``docs``/``pos`` are the new tokens, ``docs`` counted
        from the first new document.  Within one term they must come in
        ascending (doc, position) order, which the stable sort keeps.
        """
        sorted_doc, sorted_pos = self.sorted_doc, self.sorted_pos
        run_doc, run_tf = self.run_doc, self.run_tf
        term_starts, run_starts = self.term_starts, self.run_starts
        old_keys, old_titles = self.keys, self.titles
        old_lengths = self.lengths
        if replaced:
            live = np.ones(len(old_keys), dtype=bool)
            live[replaced] = False
            # Monotone, so every slice stays sorted by ordinal.
            renumber = (np.cumsum(live) - 1).astype(np.int32)
            keep = live[sorted_doc]
            term_starts = _kept_starts(term_starts, keep)
            sorted_doc = renumber[sorted_doc[keep]]
            sorted_pos = sorted_pos[keep]
            keep = live[run_doc]
            run_starts = _kept_starts(run_starts, keep)
            run_doc, run_tf = renumber[run_doc[keep]], run_tf[keep]
            alive = live.tolist()
            old_keys = [key for key, ok in zip(old_keys, alive) if ok]
            old_titles = [
                title for title, ok in zip(old_titles, alive) if ok
            ]
            old_lengths = old_lengths[live]
            ordinals = dict(zip(old_keys, range(len(old_keys))))
        else:
            # Clones share the mapping: copy, then extend.
            ordinals = dict(self._ordinals)
        first_doc = len(old_keys)
        ordinals.update(zip(keys, range(first_doc, first_doc + len(keys))))
        order = np.argsort(terms, kind="stable")
        terms, docs, pos = terms[order], docs[order], pos[order]
        del order  # a bulk build's largest temporary; free it early
        docs += first_doc
        # One run per (term, document): the doc-level postings.  New
        # documents share no run with old ones.
        first = np.ones(len(terms), dtype=bool)
        first[1:] = (terms[1:] != terms[:-1]) | (docs[1:] != docs[:-1])
        run_at = np.flatnonzero(first)
        n_terms = len(term_ids)
        (self.sorted_doc, self.sorted_pos), self.term_starts = (
            _append_to_slices(
                term_starts, (sorted_doc, sorted_pos), terms, (docs, pos),
                n_terms,
            )
        )
        (self.run_doc, self.run_tf), self.run_starts = _append_to_slices(
            run_starts,
            (run_doc, run_tf),
            terms[run_at],
            (docs[run_at], np.diff(run_at, append=len(terms))),
            n_terms,
        )
        self.term_ids = term_ids
        self.keys = old_keys + keys
        self._ordinals = ordinals
        self.titles = old_titles + titles
        self.lengths = _frozen(np.concatenate((old_lengths, lengths)))
        self.total_terms = int(self.lengths.sum())
        # Replaced, not cleared: a clone keeps the memo of its arrays.
        self.phrase_memo = PhraseMemo(len(self.run_doc))

    def _sorted_terms(self) -> "np.ndarray":
        return np.repeat(
            np.arange(len(self.term_ids), dtype=np.int32),
            np.diff(self.term_starts),
        )

    # -- construction --------------------------------------------------------

    def add_document(
        self,
        doc_key: str,
        text: str,
        title: str = "",
        terms: Sequence[str] | None = None,
    ) -> None:
        """Index one document; re-adding a key replaces it."""
        self.add_documents(
            [(doc_key, text, title)],
            terms_of=None if terms is None else lambda _: terms,
        )

    def add_documents(
        self,
        documents: Iterable[tuple[str, str, str]],
        terms_of=None,
    ) -> int:
        """Batch-ingest ``(doc_key, text, title)`` triples in one merge.

        ``terms_of`` is an optional ``text -> terms`` callable (the
        annotation engine's ``index_terms``) returning pre-normalized
        index terms; without it the text is tokenized here.  A key
        already indexed, or repeated in the batch, ends up holding its
        last text, at the end of the ingest order.  Returns the number
        of documents read.
        """
        batch: dict[str, tuple[str, Sequence[str]]] = {}
        n_read = 0
        for doc_key, text, title in documents:
            terms = (
                terms_of(text)
                if terms_of is not None
                else [word.lower() for word in tokenize_words(text)]
            )
            batch.pop(doc_key, None)
            batch[doc_key] = (title, terms)
            n_read += 1
        if not batch:
            return 0
        term_ids = dict(self.term_ids)
        new_terms = np.fromiter(
            (
                term_ids.setdefault(term, len(term_ids))
                for _, terms in batch.values()
                for term in terms
            ),
            dtype=np.int32,
        )
        replaced = [self._ordinals[k] for k in batch if k in self._ordinals]
        lengths = np.fromiter(
            (len(terms) for _, terms in batch.values()),
            dtype=np.int64,
            count=len(batch),
        )
        self._merge(
            term_ids,
            list(batch),
            [title for title, _ in batch.values()],
            lengths,
            new_terms,
            *_token_coords(lengths),
            replaced,
        )
        return n_read

    @classmethod
    def from_token_stream(
        cls,
        vocab: list[str],
        doc_keys: list[str],
        titles: list[str],
        token_terms: "np.ndarray",
        doc_ptr: "np.ndarray",
    ) -> "InvertedIndex":
        """An index over a doc-major stream of term ids.

        Document ``i`` holds ``token_terms[doc_ptr[i]:doc_ptr[i + 1]]``,
        ids into ``vocab``; this is sharded ingestion's merged output.
        """
        index = cls()
        lengths = np.diff(doc_ptr)
        index._merge(
            {term: tid for tid, term in enumerate(vocab)},
            list(doc_keys),
            list(titles),
            lengths,
            token_terms,
            *_token_coords(lengths),
        )
        return index

    def clone(self) -> "InvertedIndex":
        """An independent index sharing this one's (immutable) arrays.

        Writes build new arrays and a new phrase memo, so neither index
        ever observes the other's later writes; until then the two
        share the memo too.
        """
        return copy.copy(self)

    # -- statistics ------------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self.keys)

    @property
    def average_doc_length(self) -> float:
        if not self.keys:
            return 0.0
        return self.total_terms / self.n_docs

    @property
    def vocab(self) -> list[str]:
        """Every term ever indexed, by id (a replaced document's terms
        may remain with a document frequency of 0)."""
        return list(self.term_ids)

    def document_frequency(self, term: str) -> int:
        tid = self.term_ids.get(normalize_term(term))
        if tid is None:
            return 0
        return int(self.run_starts[tid + 1] - self.run_starts[tid])

    def doc_length(self, doc_key: str) -> int:
        ordinal = self._ordinals.get(doc_key)
        return 0 if ordinal is None else int(self.lengths[ordinal])

    def title(self, doc_key: str) -> str:
        ordinal = self._ordinals.get(doc_key)
        return "" if ordinal is None else self.titles[ordinal]

    def doc_keys(self) -> list[str]:
        return list(self.keys)

    def __contains__(self, doc_key: str) -> bool:
        return doc_key in self._ordinals

    # -- lookups ------------------------------------------------------------

    def postings(self, term: str) -> tuple["np.ndarray", "np.ndarray"]:
        """A term's postings: doc ordinals and in-document positions.

        Both arrays are sorted by (ordinal, position); an ordinal
        indexes :meth:`doc_keys`.  An unseen term has empty arrays.
        """
        tid = self.term_ids.get(normalize_term(term))
        if tid is None:
            return self.sorted_doc[:0], self.sorted_pos[:0]
        start, end = self.term_starts[tid], self.term_starts[tid + 1]
        return self.sorted_doc[start:end], self.sorted_pos[start:end]

    def doc_postings(self, term: str) -> tuple["np.ndarray", "np.ndarray"]:
        """A term's doc-level postings: the ordinals of the documents
        holding it, ascending, and its frequency in each.

        Equal to :func:`doc_runs` of the postings' ordinals, but built
        at write time; the length is the document frequency.
        """
        tid = self.term_ids.get(normalize_term(term))
        if tid is None:
            return self.run_doc[:0], self.run_tf[:0]
        start, end = self.run_starts[tid], self.run_starts[tid + 1]
        return self.run_doc[start:end], self.run_tf[start:end]

    def phrase_matches(
        self, phrase: Sequence[str]
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Ordinals of the documents holding ``phrase`` as consecutive
        terms, and the phrase's occurrence count in each.

        Each term's postings give sorted ``doc << 32 | position`` keys.
        The rarest term's keys, shifted back by its offset in the
        phrase, are the candidate starts; a start survives if every
        other term's sorted keys hold it shifted by that term's offset.
        """
        keys = [
            docs.astype(np.int64) << 32 | pos
            for docs, pos in map(self.postings, phrase)
        ]
        if not keys:
            return doc_runs(np.zeros(0, dtype=np.int64))
        rarest = min(range(len(keys)), key=lambda at: len(keys[at]))
        # A start before position 0 would borrow from the document bits.
        starts = keys[rarest]
        starts = starts[(starts & 0xFFFFFFFF) >= rarest] - rarest
        for offset, follows in enumerate(keys):
            if offset != rarest:
                # No shorter than the rarest term's keys, so never
                # empty while a start is left to look up.
                wanted = starts + offset
                at = np.searchsorted(follows, wanted)
                at = np.minimum(at, len(follows) - 1)
                starts = starts[follows[at] == wanted]
        return doc_runs(starts >> 32)

    def phrase_docs(self, phrase: list[str]) -> dict[str, int]:
        """Documents containing ``phrase`` as consecutive terms.

        Returns ``doc_key -> occurrence count``.
        """
        docs, counts = self.phrase_matches(phrase)
        keys = self.keys
        return {
            keys[doc]: count
            for doc, count in zip(docs.tolist(), counts.tolist())
        }

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the index arrays to ``path`` as one ``.npz`` archive."""
        with open(path, "wb") as handle:
            np.savez(
                handle,
                vocab=np.array(self.vocab, dtype=str),
                keys=np.array(self.keys, dtype=str),
                titles=np.array(self.titles, dtype=str),
                lengths=self.lengths,
                terms=self._sorted_terms(),
                docs=self.sorted_doc,
                pos=self.sorted_pos,
            )

    @classmethod
    def load(cls, path: str | Path) -> "InvertedIndex":
        """Load an index written by :meth:`save`."""
        index = cls()
        with np.load(path, allow_pickle=False) as arrays:
            vocab = arrays["vocab"].tolist()
            index._merge(
                {term: tid for tid, term in enumerate(vocab)},
                arrays["keys"].tolist(),
                arrays["titles"].tolist(),
                arrays["lengths"],
                arrays["terms"],
                arrays["docs"],
                arrays["pos"],
            )
        return index
