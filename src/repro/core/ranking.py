"""The ranking component (section 4): snippets, then companies.

Three scoring modes, as in the paper:

* **classification score** — the posterior probability from the trigger
  classifier (Figure 7);
* **semantic orientation** — lexicon-weighted phrase polarity, used for
  the revenue-growth driver (Figure 8);
* **company aggregation** — the mean-reciprocal-rank variant of
  Equation 2, rolling all of a company's trigger events across all
  drivers into one propensity score.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.company import CompanyNormalizer
from repro.core.lexicon import OrientationLexicon
from repro.core.temporal import score_with_recency
from repro.core.training import AnnotatedSnippet
from repro.obs.tracer import NULL_TRACER, AnyTracer


@dataclass(frozen=True)
class TriggerEvent:
    """A snippet flagged as a trigger event for one sales driver.

    ``url`` is the originating document's address — the provenance join
    key that lets ``repro explain`` tie an alert back to the page the
    crawler fetched.  It is populated when the event is built with a
    ``url_of`` resolver (the Etap and alert-service paths do this) and
    stays empty for events built from bare snippets.
    """

    driver_id: str
    item: AnnotatedSnippet
    score: float
    rank: int | None = None
    companies: tuple[str, ...] = ()
    url: str = ""

    @property
    def text(self) -> str:
        return self.item.snippet.text

    @property
    def snippet_id(self) -> str:
        return self.item.snippet.snippet_id

    @property
    def doc_id(self) -> str:
        """Stable id of the originating document (lineage key)."""
        return self.item.snippet.doc_id


def make_trigger_events(
    driver_id: str,
    items: Sequence[AnnotatedSnippet],
    scores: Sequence[float],
    normalizer: CompanyNormalizer | None = None,
    url_of: Callable[[str], str] | None = None,
) -> list[TriggerEvent]:
    """Pair snippets with scores and extract their company mentions.

    ``url_of`` maps a doc_id to the document's URL so every event
    carries its provenance join key; without it ``url`` stays empty.
    """
    if len(items) != len(scores):
        raise ValueError("items and scores must align")
    normalizer = normalizer or CompanyNormalizer()
    return [
        TriggerEvent(
            driver_id=driver_id,
            item=item,
            score=float(score),
            companies=tuple(normalizer.companies_in(item.annotated)),
            url=url_of(item.snippet.doc_id) if url_of else "",
        )
        for item, score in zip(items, scores)
    ]


def rank_events(events: Sequence[TriggerEvent]) -> list[TriggerEvent]:
    """Sort by score (descending) and assign 1-based ranks.

    Ties break on snippet id so ranking is deterministic.
    """
    ordered = sorted(events, key=lambda e: (-e.score, e.snippet_id))
    return [
        replace(event, rank=position)
        for position, event in enumerate(ordered, start=1)
    ]


class SemanticOrientationRanker:
    """Re-scores trigger events by lexicon orientation (Figure 8).

    The *magnitude* of the orientation drives the rank — both a sharp
    decline and record profits are actionable sales signals; near-zero
    orientation means the snippet says little either way.  The signed
    orientation is preserved in the event score's sign.
    """

    def __init__(self, lexicon: OrientationLexicon) -> None:
        self.lexicon = lexicon

    def score(self, event: TriggerEvent) -> float:
        return self.lexicon.score(event.text)

    def rank(self, events: Sequence[TriggerEvent]) -> list[TriggerEvent]:
        rescored = [
            replace(event, score=self.score(event)) for event in events
        ]
        ordered = sorted(
            rescored, key=lambda e: (-abs(e.score), e.snippet_id)
        )
        return [
            replace(event, rank=position)
            for position, event in enumerate(ordered, start=1)
        ]


class RecencyAdjustedRanker:
    """Section 5.2's remedy for biography noise: score x recency."""

    def __init__(
        self, reference_year: int, half_life_years: float = 2.0
    ) -> None:
        self.reference_year = reference_year
        self.half_life_years = half_life_years

    def rank(self, events: Sequence[TriggerEvent]) -> list[TriggerEvent]:
        rescored = [
            replace(
                event,
                score=score_with_recency(
                    event.score,
                    event.item.annotated,
                    self.reference_year,
                    self.half_life_years,
                ),
            )
            for event in events
        ]
        return rank_events(rescored)


@dataclass(frozen=True, slots=True)
class CompanyScore:
    """Equation 2's MRR(c) for one company."""

    company: str
    mrr: float
    n_trigger_events: int


class CompanyRanker:
    """Aggregates ranked trigger events into company scores (Equation 2).

        MRR(c) = sum_i sum_j 1 / rank(te_j(c, sd_i))
                 -----------------------------------
                 sum_i |TE(c, sd_i)|

    where i runs over sales drivers and j over the trigger events of
    company c under driver i.  Input lists must already be ranked
    (per driver) by :func:`rank_events` or an equivalent.

    ``driver_weights`` generalizes Equation 2 to industry-specific
    driver importance (section 2: "the set of sales drivers could be
    different for different industries" — and so could their weights):
    driver i contributes ``w_i / rank`` to the numerator and ``w_i`` per
    event to the denominator.  Unit weights recover the paper's formula.
    """

    def __init__(
        self,
        driver_weights: dict[str, float] | None = None,
        tracer: AnyTracer | None = None,
    ) -> None:
        if driver_weights is not None:
            bad = [d for d, w in driver_weights.items() if w < 0]
            if bad:
                raise ValueError(
                    f"driver weights must be non-negative; got {bad}"
                )
        self.driver_weights = driver_weights or {}
        self.tracer = NULL_TRACER if tracer is None else tracer

    def _weight(self, driver_id: str) -> float:
        return self.driver_weights.get(driver_id, 1.0)

    def score_companies(
        self, ranked_by_driver: dict[str, Sequence[TriggerEvent]]
    ) -> list[CompanyScore]:
        reciprocal_sum: dict[str, float] = defaultdict(float)
        weight_sum: dict[str, float] = defaultdict(float)
        event_count: dict[str, int] = defaultdict(int)
        with self.tracer.span("rank.companies") as span:
            for driver_id, events in ranked_by_driver.items():
                weight = self._weight(driver_id)
                for event in events:
                    if event.rank is None:
                        raise ValueError(
                            "events must be ranked before company "
                            "aggregation"
                        )
                    for company in event.companies:
                        reciprocal_sum[company] += weight / event.rank
                        weight_sum[company] += weight
                        event_count[company] += 1
                span.add_items(len(events))
            scores = [
                CompanyScore(
                    company=company,
                    mrr=reciprocal_sum[company] / weight_sum[company],
                    n_trigger_events=event_count[company],
                )
                for company in reciprocal_sum
                if weight_sum[company] > 0
            ]
            self.tracer.count("rank.companies_scored", len(scores))
        ordered = sorted(scores, key=lambda s: (-s.mrr, s.company))
        if self.tracer.recording:
            for position, lead in enumerate(ordered, start=1):
                self.tracer.emit(
                    "company_ranked",
                    company=lead.company,
                    mrr=lead.mrr,
                    position=position,
                    n_trigger_events=lead.n_trigger_events,
                )
        return ordered
