"""Direct WebEvolver tests (alert-loop integration lives in
tests/core/test_alerts.py)."""

from __future__ import annotations

import pytest

from repro.corpus.evolve import LATEST_HUB_URL, WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import FRONT_PAGE_URL, build_web


@pytest.fixture
def evolver():
    web = build_web(60, CorpusConfig(seed=41))
    return WebEvolver(web, CorpusConfig(seed=42))


class TestAdvance:
    def test_cycle_counter(self, evolver):
        assert evolver.cycle == 0
        evolver.advance(3)
        assert evolver.cycle == 1
        evolver.advance(3)
        assert evolver.cycle == 2

    def test_pages_fetchable(self, evolver):
        for document in evolver.advance(5):
            page = evolver.web.fetch(document.url)
            assert page.document is document

    def test_hub_accumulates_across_cycles(self, evolver):
        first = evolver.advance(4)
        second = evolver.advance(4)
        hub = evolver.web.fetch(LATEST_HUB_URL)
        for document in first + second:
            assert document.url in hub.links

    def test_hub_link_cap(self, evolver):
        for _ in range(12):
            evolver.advance(50)
        hub = evolver.web.fetch(LATEST_HUB_URL)
        assert len(hub.links) <= 500

    def test_front_page_gains_hub_link_once(self, evolver):
        evolver.advance(2)
        evolver.advance(2)
        front = evolver.web.fetch(FRONT_PAGE_URL)
        assert front.links.count(LATEST_HUB_URL) == 1

    def test_graph_updated_for_new_pages(self, evolver):
        documents = evolver.advance(3)
        for document in documents:
            assert evolver.web.graph.has_edge(
                LATEST_HUB_URL, document.url
            )

    def test_doc_id_namespace_disjoint_from_initial(self, evolver):
        initial_ids = {d.doc_id for d in evolver.web.documents}
        fresh = evolver.advance(5)
        # The evolver's generator starts counting at 1,000,000.
        for document in fresh:
            assert int(document.doc_id.split("-")[1]) >= 1_000_000
        assert not {d.doc_id for d in fresh} & initial_ids

    def test_start_id_is_a_public_parameter(self):
        """The namespace offset is plumbed through the constructor —
        no more reaching into the generator's private counter."""
        web = build_web(40, CorpusConfig(seed=41))
        evolver = WebEvolver(
            web, CorpusConfig(seed=42), start_id=5_000_000
        )
        for document in evolver.advance(4):
            assert int(document.doc_id.split("-")[1]) >= 5_000_000

    def test_default_start_id_matches_module_constant(self):
        from repro.corpus.evolve import EVOLVED_START_ID

        assert EVOLVED_START_ID == 1_000_000
        web = build_web(40, CorpusConfig(seed=41))
        first = WebEvolver(web, CorpusConfig(seed=42)).advance(1)[0]
        assert first.doc_id == f"doc-{EVOLVED_START_ID + 1}"

    def test_publishing_on_a_faulty_web_spends_no_fetch(self):
        """The publisher reads its own hubs without the fault plan."""
        from repro.robustness.faults import FaultProfile, FaultyWeb

        every_fetch_fails = FaultProfile(name="down", dead_rate=1.0)
        web = FaultyWeb(
            build_web(40, CorpusConfig(seed=41)), every_fetch_fails,
            immune=frozenset(),
        )
        evolver = WebEvolver(web, CorpusConfig(seed=42))
        first = evolver.advance(3)
        second = evolver.advance(3)
        assert web.fetch_attempts == 0
        hub = web.peek(LATEST_HUB_URL)
        assert hub.links == tuple(d.url for d in second + first)
        assert web.peek(FRONT_PAGE_URL).links.count(LATEST_HUB_URL) == 1
