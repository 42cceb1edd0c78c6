"""The alert loop: re-gather, score only new content, emit alerts.

This is the "Electronic Trigger Alert Program" behaviour proper: a
trained :class:`~repro.core.etap.Etap` instance watches an evolving web;
each :meth:`AlertService.poll` runs an incremental gather (the crawler
fetches only navigation pages and pages it has not yet fetched healthy,
replaying the links of known content pages; the document store
deduplicates what remains), scores only the snippets of previously
unseen documents, and emits one :class:`Alert` per new trigger event.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.etap import TRIGGER_THRESHOLD, Etap
from repro.core.ranking import TriggerEvent


def idempotency_key(
    driver_id: str, snippet_id: str, companies: Sequence[str] = ()
) -> str:
    """Stable key for one (driver, snippet, companies) alert identity.

    Derived from the snippet's lineage (``doc_id#index``), so the same
    story re-surfacing in a later poll — or the same snippet flagged
    for the same companies again — maps to the same key and is
    suppressed instead of re-alerted.
    """
    material = "|".join(
        [driver_id, snippet_id, ",".join(sorted(companies))]
    )
    return hashlib.sha1(material.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Alert:
    """One new trigger event surfaced by a poll cycle."""

    cycle: int
    driver_id: str
    event: TriggerEvent
    #: Idempotency key; doubles as the id ``repro explain`` looks up.
    alert_id: str = ""

    @property
    def text(self) -> str:
        return self.event.text

    @property
    def score(self) -> float:
        return self.event.score


@dataclass
class PollReport:
    """Outcome of one poll cycle."""

    cycle: int
    new_documents: int
    new_snippets: int
    alerts: list[Alert] = field(default_factory=list)


class AlertService:
    """Watches an ETAP instance's web for new trigger events."""

    def __init__(self, etap: Etap, threshold: float | None = None) -> None:
        if not etap.classifiers:
            raise ValueError(
                "the Etap instance must be trained before alerting"
            )
        self.etap = etap
        self.threshold = TRIGGER_THRESHOLD if threshold is None else threshold
        # The Etap's handle, so the whole alert loop lands in one
        # event stream.
        self.tracer = etap.tracer
        # The store only appends, so the documents no poll has scored
        # yet are exactly those stored at or past this ordinal.
        self._scored_upto = len(etap.store)
        self._cycle = 0
        # Idempotency: (driver, snippet, companies) identities already
        # alerted, across every poll so far.
        self._emitted_keys: set[str] = set()

    def poll(self) -> PollReport:
        """Re-gather and alert on trigger events in new documents.

        The gather fetches only navigation pages, new pages and pages
        that were dead or degraded last time; known content pages are
        replayed from the crawler's memory, not fetched again.
        """
        self._cycle += 1
        self.etap.gather()  # only new pages are fetched and stored
        new_doc_ids = self.etap.store.doc_ids(start=self._scored_upto)
        self._scored_upto += len(new_doc_ids)

        items = self.etap.snippet_items(new_doc_ids)
        report = PollReport(
            cycle=self._cycle,
            new_documents=len(new_doc_ids),
            new_snippets=len(items),
        )
        if not items:
            return report

        for driver in self.etap.drivers:
            events, scores = self.etap.trigger_events(
                driver.driver_id, items, self.threshold
            )
            if not events:
                continue
            if self.tracer.recording:
                self.etap.record_trigger_events(
                    driver.driver_id, events, scores
                )
            for event in events:
                key = idempotency_key(
                    driver.driver_id, event.snippet_id, event.companies
                )
                if key in self._emitted_keys:
                    continue
                self._emitted_keys.add(key)
                alert = Alert(
                    cycle=self._cycle,
                    driver_id=driver.driver_id,
                    event=event,
                    alert_id=key,
                )
                report.alerts.append(alert)
                self.tracer.emit(
                    "alert_emitted",
                    lineage_id=event.doc_id,
                    alert_id=key,
                    cycle=self._cycle,
                    driver_id=driver.driver_id,
                    snippet_id=event.snippet_id,
                    doc_id=event.doc_id,
                    score=event.score,
                    rank=event.rank,
                    url=event.url,
                    companies=list(event.companies),
                    text=event.text,
                )
        return report
