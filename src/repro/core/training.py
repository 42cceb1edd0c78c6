"""Training-data generation: smart queries -> filters -> noisy positives.

Implements section 3.3.1.  Three sets feed classifier construction:

* **Noisy positive** ``Pn`` — step 1 queries the search engine with the
  driver's smart queries and takes the top documents; step 2 snippets and
  annotates them, keeping only snippets that pass the driver's
  named-entity filter.
* **Negative** ``N`` — "a large number of snippets randomly picked from
  the Web"; the same negative sample serves every driver.
* **Pure positive** ``Pp`` — a small manually-labeled set; here, drawn
  from ground-truth snippet labels of held-out generated documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.drivers import SalesDriver
from repro.core.snippets import Snippet, SnippetGenerator
from repro.gather.store import DocumentStore
from repro.obs.tracer import NULL_TRACER, AnyTracer
from repro.search.engine import SearchEngine
from repro.text.annotator import AnnotatedText
from repro.text.engine import AnnotationEngine


class AnnotatedSnippet:
    """A snippet together with its annotation (the classifier's input).

    The classifier reads only the snippet's sentences: its features are
    per-sentence products of the annotation engine.  The snippet-level
    :class:`AnnotatedText` is for readers of entities (the drivers'
    filters, company extraction, evaluation).  Given ``engine`` instead
    of ``annotated``, it is composed on first read, from the engine's
    cached sentence annotations, so a snippet that is only scored never
    builds one.
    """

    __slots__ = ("snippet", "_annotated", "_engine")

    def __init__(
        self,
        snippet: Snippet,
        annotated: AnnotatedText | None = None,
        engine: AnnotationEngine | None = None,
    ) -> None:
        if annotated is None and engine is None:
            raise ValueError("need an annotation or an engine to compose one")
        self.snippet = snippet
        self._annotated = annotated
        self._engine = engine

    @property
    def annotated(self) -> AnnotatedText:
        if self._annotated is None:
            self._annotated = self._engine.annotate(self.snippet.sentences)
            # Held events must not pin the engine and all its caches.
            self._engine = None
        return self._annotated

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotatedSnippet):
            return NotImplemented
        return (self.snippet, self.annotated) == (
            other.snippet,
            other.annotated,
        )

    def __hash__(self) -> int:
        return hash(self.snippet)

    def __repr__(self) -> str:
        return f"AnnotatedSnippet(snippet={self.snippet!r})"


@dataclass
class NoisyPositiveReport:
    """Diagnostics from one noisy-positive generation run (Figures 5/6)."""

    driver_id: str
    queries_run: int
    documents_hit: int
    snippets_seen: int
    snippets_kept: int

    @property
    def filter_rejection_rate(self) -> float:
        if self.snippets_seen == 0:
            return 0.0
        return 1.0 - self.snippets_kept / self.snippets_seen


class TrainingDataGenerator:
    """Builds Pn / N training sets from a gathered document collection."""

    def __init__(
        self,
        store: DocumentStore,
        engine: SearchEngine,
        snippet_generator: SnippetGenerator | None = None,
        tracer: AnyTracer | None = None,
        text_engine: AnnotationEngine | None = None,
    ) -> None:
        self.store = store
        self.engine = engine
        self.text_engine = text_engine or AnnotationEngine()
        self.snippets = snippet_generator or SnippetGenerator(
            splitter=self.text_engine.sentences
        )
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._snippet_cache: dict[str, list[Snippet]] = {}

    # -- shared plumbing ------------------------------------------------------

    def _annotate(self, snippet: Snippet) -> AnnotatedSnippet:
        """The snippet, annotated on first read from its own sentences."""
        return AnnotatedSnippet(snippet, engine=self.text_engine)

    def snippets_of_document(self, doc_id: str) -> list[Snippet]:
        """Window one stored document (memoized; snippets are frozen).

        Document text behind a ``doc_id`` never changes (the store
        dedups by content), so the windowing is a pure function of the
        id and safe to memoize.  The negative sampler alone hits each
        popular document many times.
        """
        cached = self._snippet_cache.get(doc_id)
        if cached is None:
            document = self.store.get(doc_id)
            cached = self.snippets.from_text(doc_id, document.text)
            self._snippet_cache[doc_id] = cached
        return cached

    # -- noisy positives (section 3.3.1) --------------------------------------

    def noisy_positive(
        self,
        driver: SalesDriver,
        top_k_per_query: int = 200,
    ) -> tuple[list[AnnotatedSnippet], NoisyPositiveReport]:
        """Run the driver's smart queries and filter the hit snippets."""
        seen_docs: set[str] = set()
        kept: list[AnnotatedSnippet] = []
        seen_snippets = 0
        with self.tracer.span(
            f"train.noisy_positive[{driver.driver_id}]"
        ) as span:
            for query in driver.smart_queries:
                for hit in self.engine.search(
                    query, top_k=top_k_per_query
                ):
                    if hit.doc_key in seen_docs:
                        continue
                    seen_docs.add(hit.doc_key)
                    for snippet in self.snippets_of_document(hit.doc_key):
                        seen_snippets += 1
                        annotated = self._annotate(snippet)
                        if driver.snippet_filter(annotated.annotated):
                            kept.append(annotated)
            span.add_items(seen_snippets)
            self.tracer.count("train.snippets_seen", seen_snippets)
            self.tracer.count("train.snippets_kept", len(kept))
        report = NoisyPositiveReport(
            driver_id=driver.driver_id,
            queries_run=len(driver.smart_queries),
            documents_hit=len(seen_docs),
            snippets_seen=seen_snippets,
            snippets_kept=len(kept),
        )
        return kept, report

    # -- negatives -------------------------------------------------------------

    def negative_sample(
        self, n_snippets: int, seed: int = 17
    ) -> list[AnnotatedSnippet]:
        """Random snippets from the whole collection (the background class).

        As in the paper, the sample may contain a small fraction of
        genuinely positive snippets; that contamination is part of the
        method's operating conditions and is deliberately not filtered.
        """
        if n_snippets <= 0:
            raise ValueError("n_snippets must be positive")
        rng = random.Random(seed)
        doc_ids = self.store.doc_ids()
        if not doc_ids:
            raise ValueError("document store is empty")
        sample: list[AnnotatedSnippet] = []
        with self.tracer.span("train.negative_sample") as span:
            attempts = 0
            max_attempts = n_snippets * 20
            while len(sample) < n_snippets and attempts < max_attempts:
                attempts += 1
                doc_id = rng.choice(doc_ids)
                snippets = self.snippets_of_document(doc_id)
                if not snippets:
                    continue
                sample.append(self._annotate(rng.choice(snippets)))
            span.add_items(len(sample))
        return sample

    # -- pure positives ---------------------------------------------------------

    def annotate_snippets(
        self, snippets: Sequence[Snippet]
    ) -> list[AnnotatedSnippet]:
        """Annotate externally supplied (e.g. hand-labeled) snippets."""
        return [self._annotate(snippet) for snippet in snippets]
