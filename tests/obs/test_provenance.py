"""Provenance-graph tests: synthetic chains plus a real recorded run."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.alerts import AlertService
from repro.core.etap import Etap, EtapConfig
from repro.corpus.evolve import WebEvolver
from repro.corpus.generator import CorpusConfig
from repro.corpus.web import build_web
from repro.obs.events import EventLog
from repro.obs.tracer import Tracer
from repro.obs.provenance import (
    ProvenanceGraph,
    snippet_doc_id,
)


def is_acyclic(graph: ProvenanceGraph) -> bool:
    return nx.is_directed_acyclic_graph(nx.DiGraph(graph.edges()))


def unreachable_alerts(graph: ProvenanceGraph) -> list[str]:
    """Alert ids whose chain does not reach a crawled page."""
    return sorted(
        alert_id for alert_id, event in graph.alerts.items()
        if (doc := graph.docs.get(event.payload["doc_id"])) is None
        or doc.payload["url"] not in graph.pages
    )


def test_snippet_doc_id():
    assert snippet_doc_id("doc-17#3") == "doc-17"
    assert snippet_doc_id("plain") == "plain"


def _synthetic_log() -> EventLog:
    """One complete hand-built chain: seed -> hop -> page -> alert."""
    log = EventLog(run_id="synthetic")
    log.emit("page_crawled", url="http://x/", depth=0)
    log.emit("page_crawled", url="http://x/news/", depth=1, via="http://x/")
    log.emit(
        "page_crawled",
        url="http://x/news/a.html",
        depth=2,
        via="http://x/news/",
        doc_id="doc-1",
    )
    log.emit(
        "doc_indexed",
        doc_id="doc-1",
        url="http://x/news/a.html",
        title="Acme to acquire Globex",
    )
    log.emit(
        "snippet_scored",
        lineage_id="doc-1",
        snippet_id="doc-1#0",
        doc_id="doc-1",
        driver_id="mergers",
        score=0.96,
    )
    log.emit(
        "trigger_classified",
        lineage_id="doc-1",
        snippet_id="doc-1#0",
        doc_id="doc-1",
        driver_id="mergers",
        score=0.96,
        rank=1,
        features=[["merger", 2.4], ["acquire", 1.1]],
        companies=["Acme Corp"],
        text="Acme Corp agreed to acquire Globex.",
    )
    log.emit(
        "alert_emitted",
        lineage_id="doc-1",
        alert_id="alert-1",
        cycle=1,
        driver_id="mergers",
        snippet_id="doc-1#0",
        doc_id="doc-1",
        score=0.96,
        rank=1,
    )
    return log


class TestSyntheticChain:
    @pytest.fixture
    def graph(self):
        return ProvenanceGraph.from_events(_synthetic_log())

    def test_explain_assembles_the_full_chain(self, graph):
        chain = graph.explain("alert-1")
        assert chain.driver_id == "mergers"
        assert chain.cycle == 1
        assert chain.score == pytest.approx(0.96)
        assert chain.rank == 1
        assert chain.snippet_id == "doc-1#0"
        assert chain.doc_id == "doc-1"
        assert chain.url == "http://x/news/a.html"
        assert chain.title == "Acme to acquire Globex"
        assert chain.crawl_depth == 2
        assert chain.crawl_path == ["http://x/news/", "http://x/"]
        assert chain.features == [("merger", 2.4), ("acquire", 1.1)]
        assert chain.companies == ["Acme Corp"]
        assert "Acme Corp agreed" in chain.snippet_text

    def test_render_mentions_every_link(self, graph):
        text = graph.explain("alert-1").render()
        for needle in (
            "alert alert-1",
            "driver mergers",
            "merger (+2.40)",
            "snippet doc-1#0",
            "doc doc-1",
            "url http://x/news/a.html",
            "via http://x/news/",
            "via http://x/",
        ):
            assert needle in text

    def test_graph_is_acyclic_and_complete(self, graph):
        assert is_acyclic(graph)
        assert unreachable_alerts(graph) == []
        nodes = graph.nodes()
        assert ("alert", "alert-1") in nodes
        assert ("doc", "doc-1") in nodes
        assert ("url", "http://x/news/a.html") in nodes

    def test_edges_point_cause_to_effect(self, graph):
        edges = set(graph.edges())
        assert (
            ("url", "http://x/"),
            ("url", "http://x/news/"),
        ) in edges
        assert (
            ("url", "http://x/news/a.html"),
            ("doc", "doc-1"),
        ) in edges
        assert (("doc", "doc-1"), ("snippet", "doc-1#0")) in edges
        assert (
            ("snippet", "doc-1#0"),
            ("classification", "mergers:doc-1#0"),
        ) in edges
        assert (
            ("classification", "mergers:doc-1#0"),
            ("alert", "alert-1"),
        ) in edges

    def test_unknown_alert_raises_with_hint(self, graph):
        with pytest.raises(KeyError, match="alert-1"):
            graph.explain("missing")


class TestBrokenChains:
    def test_alert_without_doc_is_unreachable(self):
        log = EventLog()
        log.emit(
            "alert_emitted",
            alert_id="orphan",
            cycle=1,
            driver_id="mergers",
            snippet_id="ghost#0",
            doc_id="ghost",
            score=0.9,
        )
        graph = ProvenanceGraph.from_events(log)
        assert unreachable_alerts(graph) == ["orphan"]

    def test_explain_degrades_without_classification(self):
        log = _synthetic_log()
        graph = ProvenanceGraph()
        for event in log.events():
            if event.event_type != "trigger_classified":
                graph.add(event)
        chain = graph.explain("alert-1")
        assert chain.features == []
        assert chain.rank == 1  # falls back to the alert payload
        assert chain.url == "http://x/news/a.html"

    def test_referrer_loop_does_not_hang(self):
        log = EventLog()
        log.emit("page_crawled", url="http://x/a", depth=1, via="http://x/b")
        log.emit("page_crawled", url="http://x/b", depth=1, via="http://x/a")
        graph = ProvenanceGraph.from_events(log)
        path = graph.crawl_path("http://x/a")
        assert path == ["http://x/b"]
        # The loop also shows up as a cycle in the hop graph.
        assert not is_acyclic(graph)


class TestRecordedRun:
    """Integration: a demo-scale alert run's log explains every alert."""

    @pytest.fixture(scope="class")
    def recorded(self):
        log = EventLog(run_id="itest")
        web = build_web(300, CorpusConfig(seed=47))
        etap = Etap.from_web(
            web,
            config=EtapConfig(
                top_k_per_query=50, negative_sample_size=600
            ),
            tracer=Tracer(recorder=log),
        )
        etap.gather()
        etap.train()
        service = AlertService(etap, threshold=0.7)
        evolver = WebEvolver(web, CorpusConfig(seed=48))
        alerts = []
        for _ in range(2):
            evolver.advance(30)
            alerts.extend(service.poll().alerts)
        return log, alerts

    def test_run_produced_alerts(self, recorded):
        _, alerts = recorded
        assert alerts, "the evolving web must raise alerts to test on"

    def test_every_alert_reaches_a_crawled_page(self, recorded):
        log, _ = recorded
        graph = ProvenanceGraph.from_events(log)
        assert is_acyclic(graph)
        assert unreachable_alerts(graph) == []
        assert len(graph.alerts) > 0

    def test_every_alert_explains_completely(self, recorded):
        log, alerts = recorded
        graph = ProvenanceGraph.from_events(log)
        for alert in alerts:
            chain = graph.explain(alert.alert_id)
            assert chain.url, alert.alert_id
            assert chain.doc_id == alert.event.doc_id
            assert chain.features, "evidence must be recorded"
            rendered = chain.render()
            assert chain.url in rendered
