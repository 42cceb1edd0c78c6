"""The annotation engine: compute each document's annotation exactly once.

Every ingestion stage — gathering/indexing, training-data generation,
classifier scoring, serving-layer re-indexing — consumes some slice of
the same per-document NLP work: sentence splitting, tokenization, POS
tagging, NER, stemming, feature abstraction.  Before this engine each
stage re-derived that slice from raw text; the pipeline's hot path was
dominated by redundant annotation.

:class:`AnnotationEngine` is the shared annotate-once facade.  Each
product (sentences, full annotation, index terms, abstracted feature
tokens) lives in a content-hash-keyed, LRU-bounded
:class:`AnnotationCache`, so

* identical text reaching two stages (or two sales drivers) is
  annotated once;
* memory stays bounded on unbounded corpora (LRU eviction);
* a hash collision can never serve the wrong annotation — entries
  store the full source text and verify it on every hit.

The engine is thread-safe: parallel ingestion workers warm the caches
concurrently, and the deterministic merge step consumes the cached
values in canonical order (see :mod:`repro.gather.ingest`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.features.abstraction import AbstractionPolicy, abstract_tokens
from repro.text.annotator import AnnotatedText, AnnotatedToken, Annotator
from repro.text.ner import Entity, NerConfig
from repro.text.sentences import Sentence, split_sentence_texts, split_sentences
from repro.text.stem import PorterStemmer
from repro.text.tokenizer import tokenize_words

T = TypeVar("T")

#: Default per-product LRU capacity.  Sized for ~100k cached documents
#: per product; eviction keeps long-running monitors bounded.
DEFAULT_CAPACITY = 100_000

_SENTENCE_END_TOKENS = frozenset({".", "!", "?"})


def content_key(text: str) -> str:
    """Stable content hash used as the cache key for ``text``."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (or an aggregate of several)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    collisions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            collisions=self.collisions + other.collisions,
        )


class AnnotationCache:
    """Content-hash-keyed LRU cache for per-text annotation products.

    Values are stored alongside the full source text; a lookup whose
    hash matches but whose text differs (a collision, or a deliberately
    adversarial key) is treated as a miss and recomputed *without*
    evicting the resident entry — correctness never depends on SHA-1
    being collision-free.

    ``capacity <= 0`` disables caching entirely (every lookup computes);
    that mode exists for benchmarking the uncached path.
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, hashed: bool = True
    ) -> None:
        self.capacity = capacity
        # ``hashed=False`` keys entries by the text itself — right for
        # short, high-repetition texts (individual sentences) where the
        # SHA-1 would cost more than the dict probe it guards.
        self._hashed = hashed
        self._entries: "OrderedDict[str, tuple[str, object]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(
        self, text: str, compute: Callable[[str], T]
    ) -> T:
        """Return the cached product for ``text``, computing on miss.

        The compute call runs outside the lock, so concurrent workers
        never serialize on annotation work — at worst two threads
        compute the same value and one insert wins.
        """
        if self.capacity <= 0:
            with self._lock:
                self.stats.misses += 1
            return compute(text)
        key = content_key(text) if self._hashed else text
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_text, value = entry
                if stored_text == text:
                    self.stats.hits += 1
                    self._entries.move_to_end(key)
                    return value
                # Hash collision: the resident entry keeps its slot.
                self.stats.collisions += 1
                self.stats.misses += 1
                collided = True
            else:
                self.stats.misses += 1
                collided = False
        value = compute(text)
        if collided:
            return value
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (text, value)
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            else:
                # A concurrent compute won the insert race; reuse its
                # value so every caller observes one canonical object.
                stored_text, resident = self._entries[key]
                if stored_text == text:
                    value = resident
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class AnnotationEngine:
    """Shared annotate-once facade over the text pipeline.

    One engine instance is threaded through gathering, indexing,
    training, scoring and serving (see :class:`repro.core.etap.Etap`);
    each derived product is cached by content hash:

    ``sentences``             raw document text -> sentence strings
    ``sentence_spans``        raw document text -> :class:`Sentence` spans
    ``sentence_terms``        one sentence -> its normalized index terms
    ``sentence_annotations``  one sentence -> its :class:`AnnotatedText`
    ``annotate``              snippet text -> :class:`AnnotatedText`
    ``index_terms``           document text -> normalized index terms
    ``features``              (annotated snippet, policy) -> feature tokens

    The stemmer is shared (and internally memoized), so no two
    classifiers ever re-stem the same word.
    """

    def __init__(
        self,
        ner_config: NerConfig | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.annotator = Annotator(ner_config)
        self.stemmer = PorterStemmer()
        self._annotations = AnnotationCache(capacity)
        self._sentences = AnnotationCache(capacity)
        self._sentence_spans = AnnotationCache(capacity)
        # Sentence-level term cache, keyed by the sentence string itself.
        # Templated corpora repeat whole sentences far more often than
        # whole documents, so this cache is where sharded ingestion wins
        # its tokenization time back.
        self._sentence_terms = AnnotationCache(capacity, hashed=False)
        # Same idea for annotation: a snippet is composed from the
        # annotations of its sentences (see :meth:`_annotate_of`).
        self._sentence_annotations = AnnotationCache(capacity, hashed=False)
        self._terms = AnnotationCache(capacity)
        self._features: dict[object, AnnotationCache] = {}
        self._features_lock = threading.Lock()
        self._capacity = capacity

    # -- cached products ----------------------------------------------------

    def annotate(self, text: str) -> AnnotatedText:
        """Full annotation (tokens, POS, NER) — computed at most once.

        Composed from per-sentence annotations when the sentences
        compose (see :meth:`_annotate_of`); the result equals
        annotating the whole text either way.
        """
        return self._annotations.get_or_compute(text, self._annotate_of)

    def _annotate_of(self, text: str) -> AnnotatedText:
        """Concatenate the cached annotations of ``text``'s sentences.

        Valid when the token streams compose (:func:`terms_compose`) and
        every sentence but the last ends in a ``.``, ``!`` or ``?``
        token.  That token is tagged ``punct``, resets the tagger's
        sentence-initial state, matches no context patch and starts or
        continues no entity, so tagging and NER never look across it.
        Otherwise the whole text is annotated directly.
        """
        spans = split_sentences(text)
        if not terms_compose(text, spans):
            return self.annotator.annotate(text)
        parts = [
            self._sentence_annotations.get_or_compute(
                span.text, self.annotator.annotate
            )
            for span in spans
        ]
        if any(
            part.tokens[-1].text not in _SENTENCE_END_TOKENS
            for part in parts[:-1]
        ):
            return self.annotator.annotate(text)
        tokens: list[AnnotatedToken] = []
        entities: list[Entity] = []
        for part in parts:
            offset = len(tokens)
            tokens.extend(part.tokens)
            entities.extend(
                Entity(e.label, e.start + offset, e.end + offset, e.text)
                for e in part.entities
            )
        return AnnotatedText(text, tuple(tokens), tuple(entities))

    def sentences(self, text: str) -> list[str]:
        """Sentence strings of a document (cached; do not mutate)."""
        return self._sentences.get_or_compute(
            text, split_sentence_texts
        )

    def sentence_spans(self, text: str) -> list[Sentence]:
        """Sentence spans of a document (cached; do not mutate)."""
        return self._sentence_spans.get_or_compute(text, split_sentences)

    def sentence_terms(self, sentence: str) -> list[str]:
        """Normalized index terms of one sentence (cached; do not mutate)."""
        return self._sentence_terms.get_or_compute(sentence, _index_terms)

    def index_terms(self, text: str) -> list[str]:
        """Normalized (lower-cased) index terms (cached; do not mutate).

        Computed compositionally when possible: split into sentences and
        concatenate each sentence's (cached) terms.  Sentence-level
        reuse dwarfs document-level reuse on templated corpora, so a
        re-index after sharded ingestion runs almost entirely from the
        sentence-term cache.  When the composability guard fails the
        whole document is tokenized directly — the result is identical
        either way (see :func:`terms_compose`).
        """
        return self._terms.get_or_compute(text, self._index_terms_of)

    def _index_terms_of(self, text: str) -> list[str]:
        spans = self.sentence_spans(text)
        if not terms_compose(text, spans):
            return _index_terms(text)
        terms: list[str] = []
        for span in spans:
            terms.extend(self.sentence_terms(span.text))
        return terms

    def features(
        self, text: str, annotated: AnnotatedText, policy: AbstractionPolicy
    ) -> list[str]:
        """Abstracted feature tokens for one annotated snippet.

        Cached per policy, so a bank of per-driver classifiers sharing
        one policy abstracts each snippet once instead of once per
        driver.  ``text`` is the snippet's source text (the cache key);
        ``annotated`` its annotation, typically from :meth:`annotate`.
        """
        cache = self._feature_cache(policy)
        return cache.get_or_compute(
            text,
            lambda _: abstract_tokens(
                annotated, policy, stemmer=self.stemmer
            ),
        )

    def _feature_cache(self, policy: AbstractionPolicy) -> AnnotationCache:
        key = policy.abstract_categories
        cache = self._features.get(key)
        if cache is None:
            with self._features_lock:
                cache = self._features.setdefault(
                    key, AnnotationCache(self._capacity)
                )
        return cache

    # -- statistics ---------------------------------------------------------

    def stats(self) -> CacheStats:
        """Aggregate hit/miss accounting across every product cache."""
        total = CacheStats()
        for cache in self._caches():
            total = total.merged(cache.stats)
        return total

    def stats_by_product(self) -> dict[str, CacheStats]:
        named = {
            "annotations": self._annotations.stats,
            "sentences": self._sentences.stats,
            "sentence_spans": self._sentence_spans.stats,
            "sentence_terms": self._sentence_terms.stats,
            "sentence_annotations": self._sentence_annotations.stats,
            "index_terms": self._terms.stats,
        }
        feature_total = CacheStats()
        for cache in self._features.values():
            feature_total = feature_total.merged(cache.stats)
        named["features"] = feature_total
        return named

    def _caches(self) -> list[AnnotationCache]:
        return [
            self._annotations,
            self._sentences,
            self._sentence_spans,
            self._sentence_terms,
            self._sentence_annotations,
            self._terms,
            *self._features.values(),
        ]


def terms_compose(text: str, spans: list[Sentence]) -> bool:
    """True when per-sentence tokenization composes to the full-text one.

    Tokenizer matches never span whitespace, so concatenating each
    sentence's token stream equals tokenizing the whole document as long
    as every sentence (after the first) is preceded by whitespace in the
    source text.  :func:`~repro.text.sentences.split_sentences` yields
    stripped spans whose gaps are whitespace by construction, so this
    guard holds everywhere today — it exists so a future splitter change
    degrades to the slow path instead of to wrong terms.
    """
    return all(
        span.start == 0 or text[span.start - 1].isspace()
        for span in spans[1:]
    )


def _index_terms(text: str) -> list[str]:
    """The inverted index's term stream for one document."""
    return [word.lower() for word in tokenize_words(text)]
