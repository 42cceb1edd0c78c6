"""Publication-calendar tests: timestamps through the pipeline."""

from __future__ import annotations

import pytest

from repro.core.etap import Etap, EtapConfig
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.web import build_web


class TestGeneratorTimestamps:
    def test_days_within_timeline(self):
        config = CorpusConfig(seed=2, timeline_days=30)
        generator = CorpusGenerator(config)
        for document in generator.generate(100):
            assert 0 <= document.published_day < 30

    def test_days_vary(self):
        generator = CorpusGenerator(CorpusConfig(seed=2))
        days = {d.published_day for d in generator.generate(100)}
        assert len(days) > 10


class TestEvolverTimestamps:
    def test_new_docs_dated_after_timeline(self):
        web = build_web(100, CorpusConfig(seed=5, timeline_days=30))
        evolver = WebEvolver(
            web, CorpusConfig(seed=6, timeline_days=30)
        )
        first = evolver.advance(5)
        second = evolver.advance(5)
        assert all(d.published_day == 31 for d in first)
        assert all(d.published_day == 32 for d in second)


class TestFreshnessWindow:
    @pytest.fixture(scope="class")
    def trained(self):
        web = build_web(400, CorpusConfig(seed=13, timeline_days=60))
        etap = Etap.from_web(
            web,
            config=EtapConfig(
                top_k_per_query=60, negative_sample_size=800
            ),
        )
        etap.gather()
        etap.train()
        return etap

    def test_published_day_stored(self, trained):
        document = next(iter(trained.store))
        assert "published_day" in document.metadata

    def test_since_day_filters_old_documents(self, trained):
        all_events = trained.extract_trigger_events()
        fresh_events = trained.extract_trigger_events(since_day=40)
        for driver_id in all_events:
            assert len(fresh_events[driver_id]) <= len(
                all_events[driver_id]
            )
            for event in fresh_events[driver_id]:
                published = trained.store.get(
                    event.item.snippet.doc_id
                ).metadata["published_day"]
                assert published >= 40

    def test_since_day_zero_keeps_everything(self, trained):
        all_events = trained.extract_trigger_events()
        windowed = trained.extract_trigger_events(since_day=0)
        for driver_id in all_events:
            assert len(windowed[driver_id]) == len(
                all_events[driver_id]
            )
