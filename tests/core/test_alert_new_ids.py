"""A poll scores exactly the documents the old full-store scan found.

:meth:`AlertService.poll` takes its new documents from the store's
append-only tail instead of scanning every stored id against the set
already scored.  On an evolving web, fault-injected too, each poll's
new-id list must equal that scan's, in the same order.
"""

from __future__ import annotations

import pytest

from repro.core.alerts import AlertService
from repro.core.etap import Etap, EtapConfig
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.robustness.faults import FaultyWeb, get_profile


@pytest.mark.parametrize("profile", [None, "hostile"])
def test_new_ids_equal_the_full_store_scan(profile, monkeypatch):
    web = build_web(300, CorpusConfig(seed=29))
    if profile is not None:
        web = FaultyWeb(web, get_profile(profile), seed=5)
    etap = Etap.from_web(
        web, config=EtapConfig(top_k_per_query=40, negative_sample_size=400)
    )
    etap.gather()
    etap.train()
    service = AlertService(etap, threshold=0.7)
    scored: list[list[str]] = []
    snippet_items = etap.snippet_items

    def spy(doc_ids):
        scored.append(list(doc_ids))
        return snippet_items(doc_ids)

    monkeypatch.setattr(etap, "snippet_items", spy)
    evolver = WebEvolver(web, CorpusConfig(seed=31))
    processed = set(etap.store.doc_ids())
    for new_pages in (15, 0, 25, 10):
        if new_pages:
            evolver.advance(new_pages)
        report = service.poll()
        # The scan the poll used to run over every stored id.
        expected = [
            doc_id
            for doc_id in etap.store.doc_ids()
            if doc_id not in processed
        ]
        processed.update(expected)
        assert scored[-1] == expected
        assert report.new_documents == len(expected)
    assert sum(map(len, scored)) > 0
