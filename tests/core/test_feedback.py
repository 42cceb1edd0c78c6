"""Analyst feedback-loop tests."""

from __future__ import annotations

import pytest

from repro.core.feedback import FeedbackLoop
from repro.core.temporal import resolve
from repro.corpus.templates import CHANGE_IN_MANAGEMENT


def _looks_like_biography(text: str) -> bool:
    reading = resolve(text, reference_year=2006)
    return (
        reading.resolved_year is not None
        and reading.resolved_year < 2004
    )


def record_all(loop, events, valid: bool) -> None:
    for event in events:
        loop.record(event, valid)


@pytest.fixture(autouse=True)
def _restore_classifiers(trained_etap):
    """Feedback retraining replaces classifiers on the shared
    session-scoped etap; restore them so later tests see the original
    models."""
    snapshot = dict(trained_etap.classifiers)
    yield
    trained_etap.classifiers = snapshot


class TestRecording:
    def test_requires_trained_etap(self, small_web):
        from repro.core.etap import Etap

        etap = Etap.from_web(small_web)
        etap.gather()
        with pytest.raises(ValueError):
            FeedbackLoop(etap)

    def test_record_and_count(self, trained_etap):
        loop = FeedbackLoop(trained_etap)
        events = trained_etap.extract_trigger_events()[
            CHANGE_IN_MANAGEMENT
        ]
        loop.record(events[0], valid=True)
        loop.record(events[1], valid=False)
        assert len(loop.verdicts_for(CHANGE_IN_MANAGEMENT)) == 2
        verdicts = loop.verdicts_for(CHANGE_IN_MANAGEMENT)
        assert sum(v.valid for v in verdicts) == 1

    def test_later_verdict_overwrites(self, trained_etap):
        loop = FeedbackLoop(trained_etap)
        events = trained_etap.extract_trigger_events()[
            CHANGE_IN_MANAGEMENT
        ]
        loop.record(events[0], valid=True)
        loop.record(events[0], valid=False)
        assert len(loop.verdicts_for(CHANGE_IN_MANAGEMENT)) == 1
        assert not loop.verdicts_for(CHANGE_IN_MANAGEMENT)[0].valid


class TestRetrain:
    def test_rejecting_biographies_reduces_their_scores(
        self, trained_etap
    ):
        """The paper's section 5.2 loop: analysts reject biography
        alerts; retraining pushes those snippets down."""
        events = trained_etap.extract_trigger_events()[
            CHANGE_IN_MANAGEMENT
        ]
        biographies = [
            e for e in events if _looks_like_biography(e.text)
        ]
        genuine = [
            e for e in events if not _looks_like_biography(e.text)
        ]
        if len(biographies) < 3:
            pytest.skip("corpus sample surfaced too few biography FPs")

        loop = FeedbackLoop(trained_etap)
        record_all(loop, biographies, valid=False)
        record_all(loop, genuine[:10], valid=True)

        items = [e.item for e in biographies]
        before = trained_etap.classifiers[CHANGE_IN_MANAGEMENT].score(
            items
        )
        report = loop.retrain(CHANGE_IN_MANAGEMENT)
        after = trained_etap.classifiers[CHANGE_IN_MANAGEMENT].score(
            items
        )
        assert report.n_rejected == len(biographies)
        assert after.mean() < before.mean()

    def test_confirmed_events_keep_high_scores(self, trained_etap):
        events = trained_etap.extract_trigger_events()[
            CHANGE_IN_MANAGEMENT
        ]
        genuine = [
            e for e in events if not _looks_like_biography(e.text)
        ][:10]
        loop = FeedbackLoop(trained_etap)
        record_all(loop, genuine, valid=True)
        loop.retrain(CHANGE_IN_MANAGEMENT)
        scores = trained_etap.classifiers[CHANGE_IN_MANAGEMENT].score(
            [e.item for e in genuine]
        )
        assert scores.mean() > 0.5

    def test_report_counts(self, trained_etap):
        events = trained_etap.extract_trigger_events()[
            CHANGE_IN_MANAGEMENT
        ]
        loop = FeedbackLoop(trained_etap)
        record_all(loop, events[:3], valid=True)
        record_all(loop, events[3:5], valid=False)
        report = loop.retrain(CHANGE_IN_MANAGEMENT)
        assert report.n_confirmed == 3
        assert report.n_rejected == 2
