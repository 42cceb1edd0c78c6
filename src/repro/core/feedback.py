"""Analyst feedback loop: validated leads improve the classifiers.

Section 2: ETAP "is aimed at gathering sales leads from the Web and
presenting them to domain specialists for the final validation."  The
specialists' verdicts are labeled data — exactly the pure-positive (and
hard-negative) material section 3.3 says is scarce.  This module closes
the loop: record verdicts on trigger events, then retrain the affected
driver with confirmed events added to the pure positives and rejected
events added to the negatives.

The canonical payoff: biographies flagged as invalid by the analyst
become hard negatives, directly attacking the paper's section 5.2
failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.etap import Etap
from repro.core.ranking import TriggerEvent
from repro.core.training import AnnotatedSnippet


@dataclass(frozen=True, slots=True)
class Verdict:
    """One analyst judgment on a trigger event."""

    driver_id: str
    snippet_id: str
    valid: bool
    item: AnnotatedSnippet


@dataclass
class RetrainReport:
    """What a feedback-driven retrain changed."""

    driver_id: str
    n_confirmed: int
    n_rejected: int


class FeedbackLoop:
    """Collects verdicts and retrains drivers with them."""

    def __init__(self, etap: Etap) -> None:
        if not etap.classifiers:
            raise ValueError("the Etap instance must be trained first")
        self.etap = etap
        self._verdicts: dict[tuple[str, str], Verdict] = {}

    # -- recording ------------------------------------------------------------

    def record(self, event: TriggerEvent, valid: bool) -> None:
        """Record the analyst's verdict on one trigger event.

        A later verdict on the same (driver, snippet) overwrites the
        earlier one — analysts change their minds.
        """
        key = (event.driver_id, event.snippet_id)
        self._verdicts[key] = Verdict(
            driver_id=event.driver_id,
            snippet_id=event.snippet_id,
            valid=valid,
            item=event.item,
        )

    def verdicts_for(self, driver_id: str) -> list[Verdict]:
        return [
            verdict
            for (d, _), verdict in self._verdicts.items()
            if d == driver_id
        ]

    # -- retraining --------------------------------------------------------------

    def retrain(self, driver_id: str) -> RetrainReport:
        """Retrain one driver folding the verdicts into its data.

        Confirmed events join the pure-positive set (oversampled per
        section 3.3.2); rejected events join the negative set as hard
        negatives.
        """
        driver = next(
            d for d in self.etap.drivers if d.driver_id == driver_id
        )
        verdicts = self.verdicts_for(driver_id)
        confirmed = [v.item for v in verdicts if v.valid]
        rejected = [v.item for v in verdicts if not v.valid]

        noisy, _ = self.etap.training.noisy_positive(
            driver, top_k_per_query=self.etap.config.top_k_per_query
        )
        negatives = self.etap.training.negative_sample(
            self.etap.config.negative_sample_size
        )
        # Hard negatives carry the weight of their repetition: the
        # analyst explicitly rejected them, so repeat them to outweigh
        # the random background.
        hard_negatives = rejected * 3

        classifier = self.etap.classifiers[driver_id]
        fresh = type(classifier)(driver_id=driver_id)
        fresh.fit(
            noisy_positive=noisy,
            negative=list(negatives) + hard_negatives,
            pure_positive=confirmed,
        )
        self.etap.classifiers[driver_id] = fresh
        return RetrainReport(
            driver_id=driver_id,
            n_confirmed=len(confirmed),
            n_rejected=len(rejected),
        )
