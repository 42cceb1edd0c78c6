"""Automated error-analysis tests (section 5.2, programmatically)."""

from __future__ import annotations

import pytest

from repro.core.snippets import Snippet
from repro.core.training import AnnotatedSnippet
from repro.corpus.templates import (
    CHANGE_IN_MANAGEMENT,
    MERGERS_ACQUISITIONS,
)
from repro.evaluation.error_analysis import (
    analyze_errors,
    classify_false_positive,
)
from repro.text.annotator import Annotator

_annotator = Annotator()
_n = 0


def item(text):
    global _n
    _n += 1
    return AnnotatedSnippet(
        snippet=Snippet(doc_id=f"e{_n}", index=0, sentences=(text,)),
        annotated=_annotator.annotate(text),
    )


class TestBuckets:
    def test_biography_is_historical(self):
        bucket = classify_false_positive(
            item("Mr. Andersen was the CEO of Acme Inc from 1980-1985.")
        )
        assert bucket == "historical"

    def test_retrospective_is_historical(self):
        bucket = classify_false_positive(
            item("Back in 1992, Acme Inc had acquired Globex Corp.")
        )
        assert bucket == "historical"

    def test_cross_driver_flag_wins(self):
        bucket = classify_false_positive(
            item("Acme Inc acquired Globex Corp today."),
            other_driver_labels=[1],
        )
        assert bucket == "cross_driver"

    def test_boilerplate(self):
        bucket = classify_false_positive(
            item("Shares of Acme Inc closed at $12 on Monday.")
        )
        assert bucket == "business_boilerplate"

    def test_other(self):
        bucket = classify_false_positive(
            item("A pleasant afternoon of gardening followed.")
        )
        assert bucket == "other"

    def test_current_marker_prevents_historical(self):
        # Announced today + an old founding year: not historical.
        bucket = classify_false_positive(
            item("Acme Inc, founded in 1980, announced results today.")
        )
        assert bucket != "historical"


class TestAnalyzeErrors:
    def test_counts_and_buckets(self):
        items = [
            item("Acme Inc named Mary Jones CEO today."),        # TP
            item("Mr. Smith was the CEO of Acme Inc from "
                 "1980-1985."),                                   # FP hist
            item("Shares of Globex Corp closed at $9 on Monday."),  # FP boil
            item("Initech Ltd promoted Ann Lee to CFO."),         # FN
            item("A guide to hiking trails."),                    # TN
        ]
        y_true = [1, 0, 0, 1, 0]
        y_pred = [1, 1, 1, 0, 0]
        report = analyze_errors(
            CHANGE_IN_MANAGEMENT, items, y_true, y_pred
        )
        assert report.n_true_positive == 1
        assert report.n_false_positive == 2
        assert report.n_false_negative == 1
        assert report.fp_buckets["historical"] == 1
        assert report.fp_buckets["business_boilerplate"] == 1
        assert "1980-1985" in report.fp_examples["historical"]

    def test_cross_driver_bucket_with_other_labels(self):
        items = [item("Acme Inc acquired Globex Corp on Monday.")]
        report = analyze_errors(
            CHANGE_IN_MANAGEMENT,
            items,
            y_true=[0],
            y_pred=[1],
            other_labels={MERGERS_ACQUISITIONS: [1]},
        )
        assert report.fp_buckets["cross_driver"] == 1

    def test_render(self):
        items = [
            item("Mr. Smith was the CEO of Acme Inc from 1980-1985."),
        ]
        report = analyze_errors(
            CHANGE_IN_MANAGEMENT, items, [0], [1]
        )
        text = report.render()
        assert "historical" in text
        assert "FP=1" in text

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            analyze_errors("d", [], [0], [0])

    def test_dominant_bucket(self):
        items = [
            item("Mr. A was the CEO of Acme Inc from 1980-1985."),
            item("Ms. B served as CFO of Globex Corp between 1990 "
                 "and 1995."),
            item("Shares of Initech Ltd closed at $4 on Friday."),
        ]
        report = analyze_errors("d", items, [0, 0, 0], [1, 1, 1])
        assert report.fp_buckets.most_common(1)[0][0] == "historical"

    def test_no_errors(self):
        items = [item("Acme Inc named Mary Jones CEO today.")]
        report = analyze_errors("d", items, [1], [1])
        assert not report.fp_buckets


class TestEndToEnd:
    def test_cim_false_positives_are_explained_by_buckets(
        self, small_dataset, trained_etap
    ):
        """Section 5.2's diagnosis, automated: the named failure modes
        (historical text, cross-driver triggers, boilerplate) account
        for nearly all change-in-management false positives — few land
        in the unexplained 'other' bucket."""
        predictions = trained_etap.classifiers[
            CHANGE_IN_MANAGEMENT
        ].predict(small_dataset.test_items)
        report = analyze_errors(
            CHANGE_IN_MANAGEMENT,
            small_dataset.test_items,
            small_dataset.test_labels[CHANGE_IN_MANAGEMENT],
            predictions,
            other_labels={
                driver: labels
                for driver, labels in small_dataset.test_labels.items()
                if driver != CHANGE_IN_MANAGEMENT
            },
        )
        if report.n_false_positive == 0:
            pytest.skip("no false positives in this sample")
        unexplained = report.fp_buckets.get("other", 0)
        assert unexplained / report.n_false_positive <= 0.3
