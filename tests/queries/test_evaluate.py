"""Candidate evaluation against the gathered store's ground truth."""

from __future__ import annotations

import pytest

from repro.core.drivers import available_driver_ids
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.queries.evaluate import (
    CandidateEvaluation,
    QueryEvaluator,
    seed_evaluations,
)
from repro.queries.generate import QueryCandidate


class TestStoreGroundTruth:
    def test_every_driver_has_relevant_documents(self, ground_truth):
        for driver_id in available_driver_ids():
            assert ground_truth.relevant_docs(driver_id), (
                f"extended mix should put {driver_id} trigger docs "
                f"on the web"
            )

    def test_relevant_docs_partition_by_driver(self, ground_truth):
        funding = ground_truth.relevant_docs("funding_rounds")
        layoffs = ground_truth.relevant_docs("layoffs")
        assert not funding & layoffs

    def test_is_relevant_matches_relevant_docs(self, ground_truth):
        docs = ground_truth.relevant_docs("layoffs")
        doc_id = next(iter(docs))
        assert ground_truth.is_relevant("layoffs", doc_id)
        assert not ground_truth.is_relevant("funding_rounds", doc_id)
        assert not ground_truth.is_relevant("layoffs", "no-such-doc")


class TestCandidateEvaluation:
    def test_metrics(self):
        candidate = QueryCandidate("layoffs", '"job cuts"')
        evaluation = CandidateEvaluation(
            candidate=candidate,
            docs=("a", "b", "c", "d"),
            relevant=frozenset({"a", "c"}),
        )
        assert evaluation.cost == 4
        assert evaluation.coverage == 2
        assert evaluation.precision == pytest.approx(0.5)

    def test_zero_cost_has_zero_precision(self):
        evaluation = CandidateEvaluation(
            candidate=QueryCandidate("layoffs", "zzz"),
            docs=(),
            relevant=frozenset(),
        )
        assert evaluation.cost == 0
        assert evaluation.precision == 0.0


class TestQueryEvaluator:
    def test_seed_query_finds_relevant_docs(
        self, queries_etap, ground_truth
    ):
        evaluator = QueryEvaluator(
            queries_etap.engine, ground_truth, top_k=20
        )
        evaluation = evaluator.evaluate(
            QueryCandidate("layoffs", '"job cuts"', source="seed")
        )
        assert 0 < evaluation.cost <= 20
        assert evaluation.relevant <= set(evaluation.docs)
        assert evaluation.coverage > 0

    def test_counter_and_event_emission(
        self, queries_etap, ground_truth
    ):
        log = EventLog()
        tracer = Tracer(recorder=log)
        evaluator = QueryEvaluator(
            queries_etap.engine,
            ground_truth,
            top_k=10,
            tracer=tracer,
        )
        candidates = [
            QueryCandidate("funding_rounds", '"funding round"', "seed"),
            QueryCandidate("funding_rounds", '"series a"', "template"),
        ]
        evaluations = evaluator.evaluate_all(candidates)
        assert len(evaluations) == 2
        assert tracer.registry.counters[
            "queries.candidates_evaluated"
        ] == 2
        events = log.events("query_candidate_evaluated")
        assert len(events) == 2
        payload = events[0].payload
        assert payload["driver_id"] == "funding_rounds"
        assert payload["query"] == '"funding round"'
        assert payload["source"] == "seed"
        assert payload["cost"] == evaluations[0].cost
        assert payload["coverage"] == evaluations[0].coverage

    def test_null_recorders_by_default(self, queries_etap, ground_truth):
        evaluator = QueryEvaluator(queries_etap.engine, ground_truth)
        evaluation = evaluator.evaluate(
            QueryCandidate("layoffs", '"of its workforce"')
        )
        assert evaluation.cost >= 0  # no recorder errors


def test_seed_evaluations_filters_by_source():
    def make(query, source):
        return CandidateEvaluation(
            candidate=QueryCandidate("layoffs", query, source=source),
            docs=(),
            relevant=frozenset(),
        )

    pool = [make("a", "seed"), make("b", "template"), make("c", "seed")]
    seeds = seed_evaluations(pool)
    assert [e.candidate.query for e in seeds] == ["a", "c"]
