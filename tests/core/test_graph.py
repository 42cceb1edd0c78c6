"""Company co-mention graph tests."""

from __future__ import annotations

import pytest

from repro.core.graph import (
    build_company_graph,
    central_companies,
    deal_pairs,
)
from repro.core.ranking import make_trigger_events, rank_events
from repro.core.snippets import Snippet
from repro.core.training import AnnotatedSnippet
from repro.text.annotator import Annotator

_annotator = Annotator()
_n = 0


def event(text, score, driver):
    global _n
    _n += 1
    item = AnnotatedSnippet(
        snippet=Snippet(doc_id=f"g{_n}", index=0, sentences=(text,)),
        annotated=_annotator.annotate(text),
    )
    return make_trigger_events(driver, [item], [score])[0]


@pytest.fixture
def events_by_driver():
    ma = rank_events([
        event("Acme Inc acquired Globex Corp.", 0.9, "ma"),
        event("Acme Inc acquired Initech Ltd.", 0.8, "ma"),
        event("Hooli Systems acquired Nimbus Labs.", 0.7, "ma"),
    ])
    rg = rank_events([
        event("Acme Inc and Globex Corp reported revenue of "
              "$5 billion.", 0.6, "rg"),
    ])
    return {"ma": ma, "rg": rg}


class TestBuildGraph:
    def test_nodes_and_edges(self, events_by_driver):
        graph = build_company_graph(events_by_driver)
        assert {"acme", "globex", "initech", "hooli", "nimbus"} <= set(
            graph.nodes
        )
        assert graph.has_edge("acme", "globex")
        assert graph.has_edge("hooli", "nimbus")
        assert not graph.has_edge("acme", "hooli")

    def test_edge_weight_accumulates_across_drivers(
        self, events_by_driver
    ):
        graph = build_company_graph(events_by_driver)
        # acme-globex: 0.9 from M&A + 0.6 from revenue growth.
        assert graph["acme"]["globex"]["weight"] == pytest.approx(1.5)
        assert graph["acme"]["globex"]["drivers"] == {"ma", "rg"}

    def test_event_count_attribute(self, events_by_driver):
        graph = build_company_graph(events_by_driver)
        assert graph.nodes["acme"]["event_count"] == 3

    def test_single_company_event_adds_node_only(self):
        single = rank_events([
            event("Acme Inc reported revenue of $1 billion.", 0.5, "rg")
        ])
        graph = build_company_graph({"rg": single})
        assert "acme" in graph.nodes
        assert graph.number_of_edges() == 0

    def test_empty_input(self):
        graph = build_company_graph({})
        assert graph.number_of_nodes() == 0


class TestCentrality:
    def test_hub_company_ranks_first(self, events_by_driver):
        graph = build_company_graph(events_by_driver)
        ranked = central_companies(graph)
        assert ranked[0].company == "acme"
        assert ranked[0].degree == 2  # globex + initech

    def test_top_limits_output(self, events_by_driver):
        graph = build_company_graph(events_by_driver)
        assert len(central_companies(graph, top=2)) == 2

    def test_empty_graph(self):
        import networkx as nx

        assert central_companies(nx.Graph()) == []


class TestDealPairs:
    def test_ma_deal_sheet(self, events_by_driver):
        graph = build_company_graph(events_by_driver)
        pairs = deal_pairs(graph, driver_id="ma")
        endpoints = {(a, b) for a, b, _ in pairs}
        assert ("acme", "globex") in endpoints
        assert ("hooli", "nimbus") in endpoints

    def test_sorted_by_weight(self, events_by_driver):
        graph = build_company_graph(events_by_driver)
        pairs = deal_pairs(graph, driver_id="ma")
        weights = [w for _, _, w in pairs]
        assert weights == sorted(weights, reverse=True)

    def test_driver_filter(self, events_by_driver):
        graph = build_company_graph(events_by_driver)
        rg_pairs = deal_pairs(graph, driver_id="rg")
        assert all(
            {a, b} == {"acme", "globex"} for a, b, _ in rg_pairs
        )
