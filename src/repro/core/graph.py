"""Company co-mention graph over extracted trigger events.

Trigger events relate companies: an M&A event links acquirer and
target; an earnings story may name a rival.  Projecting all extracted
events onto a company graph gives the sales team a second lens beside
Equation 2's MRR: centrality finds companies at the heart of current
activity, and a driver's deal pairs read as its current deal sheet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import networkx as nx

from repro.core.ranking import TriggerEvent


def build_company_graph(
    events_by_driver: dict[str, Sequence[TriggerEvent]],
) -> nx.Graph:
    """Weighted co-mention graph from ranked trigger events.

    Nodes are canonical company keys; an edge's ``weight`` accumulates
    the scores of events mentioning both endpoints, and its ``drivers``
    set records which sales drivers contributed.  Node attribute
    ``event_count`` counts the events mentioning the company.
    """
    graph = nx.Graph()
    for driver_id, events in events_by_driver.items():
        for event in events:
            for company in event.companies:
                if not graph.has_node(company):
                    graph.add_node(company, event_count=0)
                graph.nodes[company]["event_count"] += 1
            for a, b in combinations(sorted(set(event.companies)), 2):
                if graph.has_edge(a, b):
                    graph[a][b]["weight"] += event.score
                    graph[a][b]["drivers"].add(driver_id)
                else:
                    graph.add_edge(
                        a, b,
                        weight=event.score,
                        drivers={driver_id},
                    )
    return graph


@dataclass(frozen=True, slots=True)
class CentralCompany:
    """One row of the centrality-based lead list."""

    company: str
    centrality: float
    event_count: int
    degree: int


def central_companies(
    graph: nx.Graph, top: int = 10
) -> list[CentralCompany]:
    """Companies ranked by weighted degree centrality.

    Weighted degree (strength) rewards being involved in many
    high-confidence events with many distinct counterparties — the
    "center of current activity" signal MRR does not capture.
    """
    if graph.number_of_nodes() == 0:
        return []
    strength = {
        node: sum(
            data["weight"] for _, _, data in graph.edges(node, data=True)
        )
        for node in graph.nodes
    }
    ranked = sorted(
        graph.nodes,
        key=lambda node: (-strength[node], node),
    )
    return [
        CentralCompany(
            company=node,
            centrality=strength[node],
            event_count=graph.nodes[node]["event_count"],
            degree=graph.degree(node),
        )
        for node in ranked[:top]
    ]


def deal_pairs(
    graph: nx.Graph, driver_id: str = "mergers_acquisitions"
) -> list[tuple[str, str, float]]:
    """Company pairs linked by events of one driver, by edge weight —
    for M&A this reads as the current deal sheet."""
    pairs = [
        (a, b, data["weight"])
        for a, b, data in graph.edges(data=True)
        if driver_id in data["drivers"]
    ]
    return sorted(pairs, key=lambda item: (-item[2], item[0], item[1]))
