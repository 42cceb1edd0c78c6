"""Alert provenance: replay the event log into an explainable graph.

An analyst acts on an alert only when the system can show *which page,
snippet, and classifier decision* produced it (paper sections 5-6).
:class:`ProvenanceGraph` is assembled purely from a run's recorded
events — no live pipeline state — so ``repro explain <alert-id>`` works
on a saved JSONL log long after the run finished.

The chain it reconstructs::

    seed URL -> crawl hops -> fetched page -> indexed document
        -> snippet -> feature evidence -> classifier score -> rank
        -> alert

Nodes are keyed ``(kind, id)`` where kind is one of ``url``, ``doc``,
``snippet``, ``classification``, ``alert``; edges always point from
cause to effect, so the graph is acyclic by construction — and
:meth:`is_acyclic` verifies that invariant for any log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.obs.events import Event

#: Node key: (kind, identifier).
NodeKey = tuple[str, str]


def snippet_doc_id(snippet_id: str) -> str:
    """The document a ``doc_id#index`` snippet id belongs to."""
    return snippet_id.rsplit("#", 1)[0]


@dataclass
class ProvenanceChain:
    """One alert's full causal history, ready to render."""

    alert_id: str
    driver_id: str
    cycle: int | None
    score: float
    rank: int | None
    snippet_id: str
    snippet_text: str
    doc_id: str
    url: str
    title: str
    crawl_path: list[str]
    crawl_depth: int | None
    features: list[tuple[str, float]]
    companies: list[str]

    def render(self) -> str:
        """Human tree: alert at the top, crawl seed at the bottom."""
        lines = [
            f"alert {self.alert_id}"
            + (f"  (cycle {self.cycle})" if self.cycle is not None else ""),
            f"└─ driver {self.driver_id}  score={self.score:.4f}"
            + (f"  rank={self.rank}" if self.rank is not None else ""),
        ]
        indent = "   "
        if self.features:
            evidence = ", ".join(
                f"{name} ({weight:+.2f})" for name, weight in self.features
            )
            lines.append(f"{indent}└─ evidence: {evidence}")
            indent += "   "
        snippet = self.snippet_text
        if len(snippet) > 100:
            snippet = snippet[:97] + "..."
        companies = ", ".join(self.companies) if self.companies else "-"
        lines.append(
            f"{indent}└─ snippet {self.snippet_id}  "
            f"(companies: {companies})"
        )
        indent += "   "
        if snippet:
            lines.append(f'{indent}   "{snippet}"')
        title = f'  "{self.title}"' if self.title else ""
        lines.append(f"{indent}└─ doc {self.doc_id}{title}")
        indent += "   "
        depth = (
            f"  (depth {self.crawl_depth})"
            if self.crawl_depth is not None
            else ""
        )
        lines.append(f"{indent}└─ url {self.url}{depth}")
        for hop in self.crawl_path:
            indent += "   "
            lines.append(f"{indent}└─ via {hop}")
        return "\n".join(lines)


class ProvenanceGraph:
    """Event-sourced lineage graph over one run's event log."""

    def __init__(self) -> None:
        self.pages: dict[str, Event] = {}
        self.referrers: dict[str, str] = {}
        self.docs: dict[str, Event] = {}
        self.doc_url: dict[str, str] = {}
        self.classifications: dict[tuple[str, str], Event] = {}
        self.alerts: dict[str, Event] = {}
        self.drift_warnings: list[Event] = []

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "ProvenanceGraph":
        graph = cls()
        for event in events:
            graph.add(event)
        return graph

    def add(self, event: Event) -> None:
        payload = event.payload
        kind = event.event_type
        if kind == "page_crawled":
            url = payload["url"]
            self.pages[url] = event
            via = payload.get("via")
            if via:
                self.referrers[url] = via
        elif kind == "doc_indexed":
            self.docs[payload["doc_id"]] = event
            self.doc_url[payload["doc_id"]] = payload["url"]
        elif kind == "trigger_classified":
            key = (payload["driver_id"], payload["snippet_id"])
            self.classifications[key] = event
        elif kind == "alert_emitted":
            self.alerts[payload["alert_id"]] = event
        elif kind == "drift_warning":
            self.drift_warnings.append(event)

    # -- graph structure ------------------------------------------------------

    def nodes(self) -> set[NodeKey]:
        found: set[NodeKey] = set()
        for url in self.pages:
            found.add(("url", url))
        for via in self.referrers.values():
            found.add(("url", via))
        for doc_id in self.docs:
            found.add(("doc", doc_id))
        for driver_id, snippet_id in self.classifications:
            found.add(("snippet", snippet_id))
            found.add(("classification", f"{driver_id}:{snippet_id}"))
        for alert_id in self.alerts:
            found.add(("alert", alert_id))
        return found

    def edges(self) -> Iterator[tuple[NodeKey, NodeKey]]:
        """Cause -> effect edges implied by the recorded events."""
        for url, via in self.referrers.items():
            yield ("url", via), ("url", url)
        for doc_id, event in self.docs.items():
            url = event.payload["url"]
            if url in self.pages:
                yield ("url", url), ("doc", doc_id)
        for (driver_id, snippet_id), _ in self.classifications.items():
            doc_id = snippet_doc_id(snippet_id)
            if doc_id in self.docs:
                yield ("doc", doc_id), ("snippet", snippet_id)
            yield (
                ("snippet", snippet_id),
                ("classification", f"{driver_id}:{snippet_id}"),
            )
        for alert_id, event in self.alerts.items():
            driver_id = event.payload["driver_id"]
            snippet_id = event.payload["snippet_id"]
            key = ("classification", f"{driver_id}:{snippet_id}")
            yield key, ("alert", alert_id)

    # -- queries --------------------------------------------------------------

    def crawl_path(self, url: str, max_hops: int = 64) -> list[str]:
        """Referrer hops from ``url`` back toward the crawl seed."""
        path: list[str] = []
        seen = {url}
        current = url
        while current in self.referrers and len(path) < max_hops:
            current = self.referrers[current]
            if current in seen:
                break  # defensive: referrer loops cannot normally occur
            seen.add(current)
            path.append(current)
        return path

    def explain(self, alert_id: str) -> ProvenanceChain:
        """Assemble the full chain for one alert (KeyError if unknown)."""
        alert = self.alerts.get(alert_id)
        if alert is None:
            known = ", ".join(sorted(self.alerts)[:10]) or "(none)"
            raise KeyError(
                f"no alert_emitted event for {alert_id!r}; known: {known}"
            )
        payload = alert.payload
        driver_id = payload["driver_id"]
        snippet_id = payload["snippet_id"]
        doc_id = payload["doc_id"]
        classification = self.classifications.get((driver_id, snippet_id))
        doc = self.docs.get(doc_id)
        url = doc.payload["url"] if doc else payload.get("url", "")
        page = self.pages.get(url)
        features: list[tuple[str, float]] = []
        rank = payload.get("rank")
        snippet_text = payload.get("text", "")
        companies = list(payload.get("companies", ()))
        if classification is not None:
            features = [
                (str(name), float(weight))
                for name, weight in classification.payload["features"]
            ]
            rank = classification.payload.get("rank", rank)
            snippet_text = classification.payload.get(
                "text", snippet_text
            )
            companies = list(
                classification.payload.get("companies", companies)
            )
        return ProvenanceChain(
            alert_id=alert_id,
            driver_id=driver_id,
            cycle=payload.get("cycle"),
            score=float(payload["score"]),
            rank=rank,
            snippet_id=snippet_id,
            snippet_text=snippet_text,
            doc_id=doc_id,
            url=url,
            title=doc.payload.get("title", "") if doc else "",
            crawl_path=self.crawl_path(url) if url else [],
            crawl_depth=(
                page.payload.get("depth") if page is not None else None
            ),
            features=features,
            companies=companies,
        )
