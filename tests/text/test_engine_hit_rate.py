"""Gather, train and extract re-read the same texts: most lookups hit."""

from __future__ import annotations

from repro.core.etap import Etap, EtapConfig
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web


def test_gather_train_extract_hits_the_annotation_caches():
    etap = Etap.from_web(
        build_web(150, CorpusConfig(seed=7)),
        config=EtapConfig(top_k_per_query=60, negative_sample_size=1200),
    )
    report = etap.gather()
    etap.train()
    events = etap.extract_trigger_events()
    assert report.documents_stored > 0
    assert sum(len(ranked) for ranked in events.values()) > 0
    assert 0 < etap.store.memory_bytes() / len(etap.store) < 100_000
    assert etap.text_engine.stats().hit_rate >= 0.5
