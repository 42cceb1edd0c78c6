"""Automated error analysis: where do the false positives come from?

Section 5.2 diagnoses the change-in-management classifier's errors by
hand ("a recurring example is the biographical description of a
person").  This module does that diagnosis programmatically: it buckets
false positives by the linguistic signature of the snippet — historical
anchor (biography/retrospective), business boilerplate, cross-driver
trigger — and false negatives by what the classifier under-weighted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.temporal import resolve
from repro.core.training import AnnotatedSnippet

#: FP bucket identifiers, most diagnostic first.
FP_BUCKETS = (
    "historical",        # biography / retrospective (past-anchored)
    "cross_driver",      # a genuine trigger — for a different driver
    "business_boilerplate",  # ORG-rich non-event text
    "other",
)


def classify_false_positive(
    item: AnnotatedSnippet,
    other_driver_labels: Sequence[int] = (),
    reference_year: int = 2006,
) -> str:
    """Assign one false positive to a bucket."""
    if any(other_driver_labels):
        return "cross_driver"
    reading = resolve(item.annotated.text, reference_year)
    if (
        reading.resolved_year is not None
        and reading.resolved_year < reference_year - 1
        and not reading.has_current_marker
    ):
        return "historical"
    has_org = any(
        entity.label == "ORG" for entity in item.annotated.entities
    )
    if has_org:
        return "business_boilerplate"
    return "other"


@dataclass
class ErrorReport:
    """Bucketized errors for one driver on one test set."""

    driver_id: str
    n_true_positive: int
    n_false_positive: int
    n_false_negative: int
    fp_buckets: Counter = field(default_factory=Counter)
    fp_examples: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"driver: {self.driver_id}",
            f"TP={self.n_true_positive}  FP={self.n_false_positive}  "
            f"FN={self.n_false_negative}",
            "false-positive buckets:",
        ]
        for bucket in FP_BUCKETS:
            count = self.fp_buckets.get(bucket, 0)
            if count == 0:
                continue
            lines.append(f"  {bucket:22s} {count:5d}")
            example = self.fp_examples.get(bucket)
            if example:
                lines.append(f"    e.g. {example[:90]}")
        return "\n".join(lines)


def analyze_errors(
    driver_id: str,
    items: Sequence[AnnotatedSnippet],
    y_true: Sequence[int],
    y_pred: Sequence[int],
    other_labels: dict[str, Sequence[int]] | None = None,
    reference_year: int = 2006,
) -> ErrorReport:
    """Bucket the errors of one driver's predictions.

    ``other_labels`` maps *other* driver ids to their ground-truth
    vectors over the same items, enabling the cross-driver bucket.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if not (len(items) == len(y_true) == len(y_pred)):
        raise ValueError("items, y_true and y_pred must align")
    other_labels = other_labels or {}

    report = ErrorReport(
        driver_id=driver_id,
        n_true_positive=int(((y_true == 1) & (y_pred == 1)).sum()),
        n_false_positive=int(((y_true == 0) & (y_pred == 1)).sum()),
        n_false_negative=int(((y_true == 1) & (y_pred == 0)).sum()),
    )
    for index, item in enumerate(items):
        if not (y_true[index] == 0 and y_pred[index] == 1):
            continue
        others = [
            labels[index] for labels in other_labels.values()
        ]
        bucket = classify_false_positive(
            item, others, reference_year=reference_year
        )
        report.fp_buckets[bucket] += 1
        report.fp_examples.setdefault(bucket, item.annotated.text)
    return report
