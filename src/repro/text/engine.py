"""The annotation engine: compute each document's annotation exactly once.

Every ingestion stage — gathering/indexing, training-data generation,
classifier scoring, serving-layer re-indexing — consumes some slice of
the same per-document NLP work: sentence splitting, tokenization, POS
tagging, NER, stemming, feature abstraction.  Before this engine each
stage re-derived that slice from raw text; the pipeline's hot path was
dominated by redundant annotation.

:class:`AnnotationEngine` is the shared annotate-once facade.  A
document is split into sentences once, and that split is its one
per-document product: index terms concatenate its sentences' terms,
snippets are windows over its sentences, and a snippet's annotation
concatenates the annotations of its own sentences.  Every product lives
in an LRU-bounded :class:`AnnotationCache`, so

* identical text reaching two stages (or two sales drivers) is
  annotated once;
* memory stays bounded on unbounded corpora (LRU eviction).

The engine is thread-safe: parallel ingestion workers warm the caches
concurrently, and the deterministic merge step consumes the cached
values in canonical order (see :mod:`repro.gather.ingest`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Sequence, TypeVar

from repro.features.abstraction import AbstractionPolicy, abstract_tokens
from repro.text.annotator import AnnotatedText, AnnotatedToken, Annotator
from repro.text.ner import Entity, NerConfig
from repro.text.sentences import Sentence, split_sentences
from repro.text.stem import PorterStemmer
from repro.text.tokenizer import tokenize_words

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)

#: Default per-product LRU capacity.  Sized for ~100k cached documents
#: per product; eviction keeps long-running monitors bounded.
DEFAULT_CAPACITY = 100_000

_SENTENCE_END_TOKENS = frozenset({".", "!", "?"})

_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache (or an aggregate of several)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

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
        )


class AnnotationCache:
    """LRU cache for annotation products, keyed by their source."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_compute(self, key: K, compute: Callable[[K], T]) -> T:
        """Return the cached product for ``key``, computing on miss.

        The compute call runs outside the lock, so concurrent workers
        never serialize on annotation work — at worst two threads
        compute the same value and one insert wins.
        """
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.stats.misses += 1
        return self.put(key, compute(key))

    def get_or_compute_many(
        self, keys: Sequence[K], compute: Callable[[K], T]
    ) -> list[T]:
        """:meth:`get_or_compute` for each of ``keys``, in order.

        The hits are read under one lock acquisition; each miss is then
        computed outside the lock, as in :meth:`get_or_compute`.
        """
        values: list = [_MISSING] * len(keys)
        missing: list[int] = []
        with self._lock:
            entries = self._entries
            for i, key in enumerate(keys):
                value = entries.get(key, _MISSING)
                if value is _MISSING:
                    missing.append(i)
                else:
                    entries.move_to_end(key)
                    values[i] = value
            self.stats.hits += len(keys) - len(missing)
            self.stats.misses += len(missing)
        for i in missing:
            values[i] = self.put(keys[i], compute(keys[i]))
        return values

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def put(self, key: K, value: T) -> T:
        """Insert a value computed elsewhere; no hit or miss is counted.

        Returns the cached value, which is ``value`` unless the key was
        already present.
        """
        with self._lock:
            if key not in self._entries:
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            else:
                # A concurrent compute won the insert race; reuse its
                # value so every caller observes one canonical object.
                value = self._entries[key]
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


@dataclass(frozen=True, slots=True)
class SentenceSplit:
    """A document's sentences: the engine's one per-document product."""

    sentences: tuple[str, ...]
    #: Whether the sentences' token streams concatenate to the whole
    #: text's (see :func:`terms_compose`).
    composes: bool


def split_document(text: str) -> SentenceSplit:
    """Split ``text`` into sentences and check that they compose."""
    return split_of_spans(text, split_sentences(text))


def split_of_spans(text: str, spans: list[Sentence]) -> SentenceSplit:
    """The :class:`SentenceSplit` of ``text`` from its sentence spans."""
    return SentenceSplit(
        tuple(span.text for span in spans), terms_compose(text, spans)
    )


def text_key(data: bytes) -> bytes:
    """Content key of a document's UTF-8 text, for shipped splits."""
    return hashlib.blake2b(data, digest_size=16).digest()


@dataclass(frozen=True)
class ShippedSplits:
    """Sentence splits computed in a worker process, as flat arrays.

    Document ``j`` has the sentences ``text[bounds[2*i]:bounds[2*i+1]]``
    for ``i`` in ``range(ptr[j], ptr[j+1])`` (character offsets), and
    ``keys[j]`` is :func:`text_key` of its UTF-8 text.
    """

    keys: list[bytes]
    bounds: "np.ndarray"  # int32 start/end pairs, doc-major
    ptr: "np.ndarray"  # int32, len n_docs + 1
    composes: "np.ndarray"  # bool per document

    def split(self, j: int, text: str) -> SentenceSplit:
        """Document ``j``'s split, read against its ``text``."""
        flat = self.bounds[2 * self.ptr[j] : 2 * self.ptr[j + 1]].tolist()
        return SentenceSplit(
            tuple(text[start:end] for start, end in zip(flat[::2], flat[1::2])),
            bool(self.composes[j]),
        )


class AnnotationEngine:
    """Shared annotate-once facade over the text pipeline.

    One engine instance is threaded through gathering, indexing,
    training, scoring and serving (see :class:`repro.core.etap.Etap`).
    Each derived product is cached:

    ``sentences``             document text -> its :class:`SentenceSplit`
    ``sentence_terms``        one sentence -> its normalized index terms
    ``sentence_annotations``  one sentence -> its :class:`AnnotatedText`
    ``annotations``           snippet sentences -> :class:`AnnotatedText`
    ``features``              (sentence, policy) -> feature tokens, closes

    A document is split once.  Its index terms concatenate its
    sentences' terms, its snippets are windows over its sentences, and
    a snippet's annotation concatenates its own sentences' annotations,
    so no snippet is joined and split again.  Feature work is per
    distinct sentence too: a snippet's feature row is the sum of its
    sentences' rows (see :mod:`repro.features.vectorizer`).  The stemmer
    is shared (and internally memoized), so no two classifiers ever
    re-stem the same word.
    """

    def __init__(
        self,
        ner_config: NerConfig | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.annotator = Annotator(ner_config)
        self.stemmer = PorterStemmer()
        self._splits = AnnotationCache(capacity)
        #: text_key -> (shipped splits, document index), until read.
        self._shipped: dict[bytes, tuple[ShippedSplits, int]] = {}
        # Sentence-level caches.  Templated corpora repeat whole
        # sentences far more often than whole documents, so these are
        # where sharded ingestion wins its tokenization time back and
        # where snippet annotation reuses.
        self._sentence_terms = AnnotationCache(capacity)
        self._sentence_annotations = AnnotationCache(capacity)
        self._annotations = AnnotationCache(capacity)
        self._features: dict[object, AnnotationCache] = {}
        self._features_lock = threading.Lock()
        self._capacity = capacity

    # -- cached products ----------------------------------------------------

    def split(self, text: str) -> SentenceSplit:
        """The sentence split of a document (cached)."""
        if self._shipped and text not in self._splits:
            shipped = self._shipped.pop(text_key(text.encode("utf-8")), None)
            if shipped is not None:
                self._splits.put(text, shipped[0].split(shipped[1], text))
        return self._splits.get_or_compute(text, split_document)

    def seed_splits(self, shipped: ShippedSplits) -> None:
        """Take the document splits a worker process computed.

        A shipped split enters the ``sentences`` cache on the first
        :meth:`split` of its text, and that read is a hit: the document
        was split once, in the worker, as an inline shard splits it once
        into this cache.  Until then it costs only its key and offsets,
        so a document whose split is never read is never materialized.
        """
        for j, key in enumerate(shipped.keys):
            if len(self._shipped) >= self._capacity:
                break
            self._shipped[key] = (shipped, j)

    def sentences(self, text: str) -> tuple[str, ...]:
        """Sentence strings of a document, read from its split."""
        return self.split(text).sentences

    def annotate(self, text: str | tuple[str, ...]) -> AnnotatedText:
        """Full annotation (tokens, POS, NER) — computed at most once.

        ``text`` is a snippet's sentence tuple, annotated as their
        ``" "`` join, or a raw text, whose sentences come from its
        cached split.  The result is composed from per-sentence
        annotations when they compose (see :meth:`_compose`) and equals
        annotating the whole text either way.
        """
        return self._annotations.get_or_compute(text, self._annotate_of)

    def _annotate_of(self, text: str | tuple[str, ...]) -> AnnotatedText:
        if not isinstance(text, str):
            return self._compose(" ".join(text), text)
        split = self.split(text)
        if not split.composes:
            return self.annotator.annotate(text)
        return self._compose(text, split.sentences)

    def _compose(
        self, text: str, sentences: tuple[str, ...]
    ) -> AnnotatedText:
        """Concatenate the cached annotations of ``text``'s sentences.

        The sentences' token streams concatenate to ``text``'s.  The
        annotations compose when every sentence but the last ends in a
        ``.``, ``!`` or ``?`` token.  That token is tagged ``punct``,
        resets the tagger's sentence-initial state, matches no context
        patch and starts or continues no entity, so tagging and NER
        never look across it.  Otherwise the whole text is annotated
        directly.
        """
        parts = [
            self._sentence_annotations.get_or_compute(
                sentence, self.annotator.annotate
            )
            for sentence in sentences
        ]
        if not all(map(_closes, parts[:-1])):
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

    def sentence_terms(self, sentence: str) -> list[str]:
        """Normalized index terms of one sentence (cached; do not mutate)."""
        return self._sentence_terms.get_or_compute(sentence, text_terms)

    def index_terms(self, text: str) -> list[str]:
        """Normalized (lower-cased) index terms of a document.

        The concatenated (cached) terms of the document's sentences.
        A document is indexed once, so only its sentences' terms are
        cached: sentence-level reuse dwarfs document-level reuse on
        templated corpora, and a re-index after sharded ingestion runs
        almost entirely from the sentence-term cache.  When the split
        does not compose the whole document is tokenized directly — the
        result is identical either way (see :func:`terms_compose`).
        """
        split = self.split(text)
        if not split.composes:
            return text_terms(text)
        terms: list[str] = []
        for sentence in split.sentences:
            terms.extend(self.sentence_terms(sentence))
        return terms

    def features(
        self, sentences: Sequence[str], policy: AbstractionPolicy
    ) -> list[tuple[tuple[str, ...], bool]]:
        """Per sentence: its abstracted feature tokens, and whether it closes.

        Cached per (sentence, policy), so a bank of per-driver
        classifiers sharing one policy abstracts each sentence once
        instead of once per driver.  A sentence closes when its last
        token is a ``.``, ``!`` or ``?`` (see :meth:`_compose`); the
        tokens of a snippet whose sentences close concatenate theirs.
        With ``policy`` bound this is a
        :data:`~repro.features.vectorizer.Featurizer`.
        """
        return self._feature_cache(policy).get_or_compute_many(
            sentences, lambda sentence: self._features_of(sentence, policy)
        )

    def _features_of(
        self, sentence: str, policy: AbstractionPolicy
    ) -> tuple[tuple[str, ...], bool]:
        annotated = self._sentence_annotations.get_or_compute(
            sentence, self.annotator.annotate
        )
        return (
            tuple(abstract_tokens(annotated, policy, stemmer=self.stemmer)),
            _closes(annotated),
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
        for product in self.stats_by_product().values():
            total = total.merged(product)
        return total

    def stats_by_product(self) -> dict[str, CacheStats]:
        features = CacheStats()
        for cache in list(self._features.values()):
            features = features.merged(cache.stats)
        return {
            "sentences": self._splits.stats,
            "sentence_terms": self._sentence_terms.stats,
            "sentence_annotations": self._sentence_annotations.stats,
            "annotations": self._annotations.stats,
            "features": features,
        }


def _closes(annotated: AnnotatedText) -> bool:
    """True when annotation cannot look past the end of ``annotated``."""
    tokens = annotated.tokens
    return bool(tokens) and tokens[-1].text in _SENTENCE_END_TOKENS


def terms_compose(text: str, spans: list[Sentence]) -> bool:
    """True when per-sentence tokenization composes to the full-text one.

    Tokenizer matches never span whitespace, so concatenating each
    sentence's token stream equals tokenizing the whole document as long
    as every sentence (after the first) is preceded by whitespace in the
    source text.  :func:`~repro.text.sentences.split_sentences` can cut
    between two sentences that abut: ``"Acme rose.Beta fell."`` splits
    after ``rose.``, but the whole text tokenizes ``rose.Beta`` as one
    word.  Such a document is tokenized whole.
    """
    return all(
        span.start == 0 or text[span.start - 1].isspace()
        for span in spans[1:]
    )


def text_terms(text: str) -> list[str]:
    """The inverted index's term stream for one text."""
    return [word.lower() for word in tokenize_words(text)]
