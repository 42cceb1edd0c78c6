"""Ranked search engine over an indexed corpus (the "Google" substitute).

Supports the query shapes ETAP's training-data generation uses
(section 3.3.1):

* quoted phrases — ``'"new ceo"'`` restricts results to documents that
  contain the exact phrase, mirroring quoted Google queries;
* plain keyword queries — ``'mergers and acquisitions'`` ranks by BM25
  over all terms (the paper's example of a *naive* query whose result
  list is noisy);
* mixed queries — phrases and loose keywords combine; phrase matches are
  required, keywords contribute to the ranking.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

import numpy as np

from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.search.index import InvertedIndex, PhraseMemo, normalize_term
from repro.search.scoring import PHRASE_BOOST, bm25
from repro.text.engine import AnnotationEngine
from repro.text.tokenizer import tokenize_words

_PHRASE_RE = re.compile(r'"([^"]+)"')
#: Ranked hits are made as ``_new_tuple(SearchResult, fields)``: the
#: named tuple's own ``__new__`` would add a Python call per result.
_new_tuple = tuple.__new__


class SearchResult(NamedTuple):
    """One ranked hit (immutable; equal when its fields are)."""

    doc_key: str
    score: float
    title: str


class ParsedQuery(NamedTuple):
    """A query split into exact phrases and loose terms."""

    phrases: tuple[tuple[str, ...], ...]
    terms: tuple[str, ...]

    @property
    def all_terms(self) -> tuple[str, ...]:
        flat = [term for phrase in self.phrases for term in phrase]
        return tuple(flat) + self.terms


def parse_query(query: str) -> ParsedQuery:
    """Split a query string into quoted phrases and remaining keywords.

    Each quoted phrase's words are a phrase (a phrase of no words is
    dropped); the words left once every phrase is cut out are the loose
    terms, keeping only words with a letter or digit in them.

    The text is tokenized once.  The phrases are joined, each followed
    by ``' " '``, ahead of the remainder: a phrase holds no ``"``, so
    the first ``"`` tokens are exactly the phrase ends, and a token
    never spans the spaces, so every phrase and the remainder tokenize
    as they would alone.
    """
    parts = _PHRASE_RE.split(query)
    if len(parts) == 1:
        return ParsedQuery((), _loose_terms(tokenize_words(query)))
    quoted = parts[1::2]
    words = tokenize_words(
        ' " '.join(quoted) + ' " ' + " ".join(parts[::2])
    )
    phrases = []
    start = 0
    for _ in quoted:
        end = words.index('"', start)
        if end > start:
            phrases.append(tuple(map(normalize_term, words[start:end])))
        start = end + 1
    return ParsedQuery(tuple(phrases), _loose_terms(words[start:]))


def _loose_terms(words: list[str]) -> tuple[str, ...]:
    """The normalized words that hold a letter or digit.

    Every token longer than one character starts with a letter, a digit
    or ``$`` and a digit, so only a one-character token can lack one.
    """
    return tuple(
        normalize_term(word)
        for word in words
        if len(word) > 1 or word.isalnum()
    )


class SearchEngine:
    """BM25-ranked retrieval with phrase constraints."""

    def __init__(
        self,
        index: InvertedIndex | None = None,
        tracer: AnyTracer | None = None,
        text_engine: AnnotationEngine | None = None,
    ) -> None:
        self.index = index or InvertedIndex()
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Shared annotate-once engine: a document's index terms are
        #: its sentences' cached terms, so a sentence tokenized anywhere
        #: in the pipeline is never re-tokenized when it reaches the index.
        self.text_engine = text_engine

    def add_documents(
        self, documents: Iterable[tuple[str, str, str]]
    ) -> int:
        """Index ``(doc_key, text, title)`` triples as one write batch."""
        n_added = self.index.add_documents(
            documents,
            terms_of=(
                self.text_engine.index_terms
                if self.text_engine is not None
                else None
            ),
        )
        if n_added:
            self.tracer.count("engine.documents_indexed", n_added)
        return n_added

    def add_document(self, doc_key: str, text: str, title: str = "") -> None:
        self.add_documents([(doc_key, text, title)])

    def clone(self) -> "SearchEngine":
        """A search engine over a :meth:`InvertedIndex.clone` of the index.

        The shared text engine carries over; the clone's index can be
        written without touching this engine (the serve layer builds
        delta generations this way).
        """
        return SearchEngine(
            index=self.index.clone(),
            tracer=self.tracer,
            text_engine=self.text_engine,
        )

    def search(
        self,
        query: str,
        top_k: int = 10,
        within: "np.ndarray | None" = None,
    ) -> list[SearchResult]:
        """Run ``query`` and return the ``top_k`` ranked results.

        ``within`` is an optional boolean mask over document ordinals:
        only the documents it marks can be returned, but they are scored
        with the whole index's statistics (document count, mean length,
        document frequencies), so a partition's results are exactly the
        whole ranking filtered to that partition.

        Degenerate queries are answered, never raised on: a query that
        normalizes to zero terms (empty/whitespace/punctuation-only
        input, or only empty quoted phrases) and a non-positive
        ``top_k`` both return an empty result list.  The serve layer
        relies on this — an analyst's garbage query must produce an
        empty page, not a 500.
        """
        if top_k <= 0:
            return []
        with self.tracer.timed("engine.search_seconds"):
            results = self._search(query, top_k, within)
        self.tracer.count("engine.searches")
        self.tracer.observe("engine.results_per_search", len(results))
        self.tracer.emit(
            "search_executed", query=query, n_results=len(results)
        )
        return results

    def _search(
        self, query: str, top_k: int, within: "np.ndarray | None"
    ) -> list[SearchResult]:
        """Score the query's candidate documents.

        A query with quoted phrases can only return the documents that
        hold every phrase, so those candidates are the only documents
        scored, on Python scalars.  The phrase clause — the candidates,
        their phrase bonus and the phrase terms' BM25 sum there — is
        evaluated once per index generation, without ``within``, and
        kept in the index's ``phrase_memo``; so is each loose term's
        BM25 contribution to every document holding it (see
        :mod:`repro.search.index`: every write replaces the memo).
        Each query cuts the clause to ``within``, adds each loose term
        from its entry at the candidates that hold it, and sorts the
        candidates.  A query without phrases accumulates
        every posting into one dense per-ordinal numpy array instead.

        Either way each document's score adds its terms' BM25
        contributions from 0.0 in query-term order (phrase terms first)
        and then its phrase bonus, so floating-point results do not
        depend on the path, on the memo or on how the index was built.
        """
        parsed = parse_query(query)
        if not (parsed.phrases or parsed.terms):
            return []
        index = self.index
        keys, titles = index.keys, index.titles
        if parsed.phrases:
            # The clause is looked up last, so that a memo replaced
            # because this query's entries overflow it keeps the clause.
            loose = [self._term_scores(term).get for term in parsed.terms]
            hits, bonus, partial = self._phrase_candidates(parsed.phrases)
            if within is not None:
                kept = [at for at, doc in enumerate(hits) if within[doc]]
                hits = [hits[at] for at in kept]
                bonus = [bonus[at] for at in kept]
                scores = [partial[at] for at in kept]
            else:
                scores = partial
            if not hits:
                return []
            for held in loose:
                # Adding 0.0 where the term is absent keeps a sum as is.
                scores = [
                    score + held(doc, 0.0) for score, doc in zip(scores, hits)
                ]
            # (-score, doc_key) is the dense path's order; a key is
            # unique, so the ordinal is never compared.
            ranked = sorted(
                (-(score + extra), keys[doc], doc)
                for score, extra, doc in zip(scores, bonus, hits)
            )
            return [
                _new_tuple(SearchResult, (key, -negated, titles[doc]))
                for negated, key, doc in ranked[:top_k]
            ]
        n_docs = index.n_docs
        avg_length = index.average_doc_length or 1.0
        scores = np.zeros(n_docs)
        for term in parsed.all_terms:
            docs, tf = index.doc_postings(term)
            df = len(docs)
            if within is not None:
                keep = within[docs]
                docs, tf = docs[keep], tf[keep]
            scores[docs] += bm25(
                tf, index.lengths[docs], df, n_docs, avg_length
            )
        # Every BM25 contribution is positive: scored means nonzero.
        hits = np.flatnonzero(scores)
        final = scores[hits]
        if len(hits) > top_k:
            # Every hit tied with the k-th best survives the cut, so the
            # (-score, doc_key) order below decides the boundary.
            cut = len(hits) - top_k
            keep = final >= np.partition(final, cut)[cut]
            hits, final = hits[keep], final[keep]
        ranked = sorted(
            zip((-final).tolist(), hits.tolist()),
            key=lambda item: (item[0], keys[item[1]]),
        )
        return [
            _new_tuple(SearchResult, (keys[doc], -negated, titles[doc]))
            for negated, doc in ranked[:top_k]
        ]

    def _score_at(
        self, scores: "np.ndarray", hits: "np.ndarray", term: str
    ) -> None:
        """Add ``term``'s BM25 contribution at the sorted ordinals
        ``hits`` to their ``scores``."""
        index = self.index
        docs, tf = index.doc_postings(term)
        if not len(docs):
            return
        at = np.minimum(np.searchsorted(docs, hits), len(docs) - 1)
        held = docs[at] == hits
        scores[held] += bm25(
            tf[at[held]],
            index.lengths[hits[held]],
            len(docs),
            index.n_docs,
            index.average_doc_length or 1.0,
        )

    def _term_scores(self, term: str) -> dict[int, float]:
        """``term``'s BM25 contribution to each document holding it,
        by ordinal; memoized per index generation."""
        index = self.index
        entry = index.phrase_memo.get(term)
        if entry is None:
            docs, tf = index.doc_postings(term)
            values = bm25(
                tf,
                index.lengths[docs],
                len(docs),
                index.n_docs,
                index.average_doc_length or 1.0,
            )
            entry = dict(zip(docs.tolist(), values.tolist()))
            self._remember(term, entry, len(entry))
        return entry

    def _phrase_candidates(
        self, phrases: tuple[tuple[str, ...], ...]
    ) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
        """The phrase clause: ascending ordinals of the documents holding
        every phrase, each one's summed phrase bonus, and the BM25 sum
        of the phrase terms there (added from 0.0 in phrase-term order).

        Memoized per index generation; computed with numpy on a miss.
        """
        index = self.index
        clause = index.phrase_memo.get(phrases)
        if clause is not None:
            return clause
        docs, counts = index.phrase_matches(phrases[0])
        bonus = PHRASE_BOOST * counts
        for phrase in phrases[1:]:
            matched, counts = index.phrase_matches(phrase)
            docs, at, at_matched = np.intersect1d(
                docs, matched, assume_unique=True, return_indices=True
            )
            bonus = bonus[at] + PHRASE_BOOST * counts[at_matched]
        partial = np.zeros(len(docs))
        for phrase in phrases:
            for term in phrase:
                self._score_at(partial, docs, term)
        clause = tuple(
            tuple(column.tolist()) for column in (docs, bonus, partial)
        )
        self._remember(phrases, clause, len(docs))
        return clause

    def _remember(self, key, entry, size: int) -> None:
        """Keep a memo entry; a full memo is replaced, not grown."""
        memo = self.index.phrase_memo
        if not memo.add(key, entry, size):
            memo = PhraseMemo(memo.budget)
            memo.add(key, entry, size)
            self.index.phrase_memo = memo
