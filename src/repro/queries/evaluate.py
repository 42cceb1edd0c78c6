"""Candidate evaluation: coverage, precision, and crawl cost.

Each candidate runs through the real :class:`~repro.search.engine.
SearchEngine` over the gathered collection; relevance is read from the
ground truth the gather stage already stores — every
:class:`~repro.gather.store.StoredDocument` carries its ``doc_type``
in metadata, and :func:`~repro.corpus.generator.driver_for_doc_type`
maps trigger doc types to drivers.  Cost is the crawl-budget unit used
by :mod:`repro.gather`: pages fetched, i.e. one page per retrieved
result a downstream pipeline would pull.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.corpus.generator import driver_for_doc_type
from repro.gather.store import DocumentStore
from repro.obs.tracer import NULL_TRACER
from repro.queries.generate import QueryCandidate
from repro.search.engine import SearchEngine


class StoreGroundTruth:
    """Driver-relevance labels read from a gathered document store."""

    def __init__(self, store: DocumentStore) -> None:
        self._driver_of: dict[str, str] = {}
        for document in store:
            driver_id = driver_for_doc_type(
                document.metadata.get("doc_type", "")
            )
            if driver_id is not None:
                self._driver_of[document.doc_id] = driver_id

    def is_relevant(self, driver_id: str, doc_id: str) -> bool:
        return self._driver_of.get(doc_id) == driver_id

    def relevant_docs(self, driver_id: str) -> frozenset[str]:
        """All stored documents carrying this driver's trigger events."""
        return frozenset(
            doc_id
            for doc_id, driver in self._driver_of.items()
            if driver == driver_id
        )


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate's measured coverage / precision / cost."""

    candidate: QueryCandidate
    docs: tuple[str, ...]
    relevant: frozenset[str]

    @property
    def cost(self) -> int:
        """Pages fetched if this query's results are crawled."""
        return len(self.docs)

    @property
    def coverage(self) -> int:
        """Distinct relevant documents retrieved."""
        return len(self.relevant)

    @property
    def precision(self) -> float:
        return self.coverage / self.cost if self.cost else 0.0


class QueryEvaluator:
    """Runs candidates through the engine and scores them."""

    def __init__(
        self,
        engine: SearchEngine,
        ground_truth: StoreGroundTruth,
        top_k: int = 40,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.ground_truth = ground_truth
        self.top_k = top_k
        self.tracer = NULL_TRACER if tracer is None else tracer

    def evaluate(self, candidate: QueryCandidate) -> CandidateEvaluation:
        results = self.engine.search(candidate.query, top_k=self.top_k)
        docs = tuple(result.doc_key for result in results)
        relevant = frozenset(
            doc_id
            for doc_id in docs
            if self.ground_truth.is_relevant(candidate.driver_id, doc_id)
        )
        evaluation = CandidateEvaluation(
            candidate=candidate, docs=docs, relevant=relevant
        )
        self.tracer.count("queries.candidates_evaluated")
        self.tracer.emit(
            "query_candidate_evaluated",
            driver_id=candidate.driver_id,
            query=candidate.query,
            source=candidate.source,
            coverage=evaluation.coverage,
            precision=round(evaluation.precision, 4),
            cost=evaluation.cost,
        )
        return evaluation

    def evaluate_all(
        self, candidates: Iterable[QueryCandidate]
    ) -> list[CandidateEvaluation]:
        with self.tracer.span("queries.evaluate"):
            return [self.evaluate(c) for c in candidates]


def seed_evaluations(
    evaluations: Sequence[CandidateEvaluation],
) -> list[CandidateEvaluation]:
    """The subset of evaluations for hand-written seed queries."""
    return [
        evaluation
        for evaluation in evaluations
        if evaluation.candidate.source == "seed"
    ]
