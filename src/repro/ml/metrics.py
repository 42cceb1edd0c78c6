"""Evaluation metrics: confusion counts and precision/recall/F1 (Table 1).

The F1 measure "is computed as the harmonic mean of the precision and
recall measures" (section 5.1).  Equation 2's mean reciprocal rank
aggregates trigger events per company, so it lives in
:class:`repro.core.ranking.CompanyRanker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """Binary confusion counts (positive class = 1)."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True, slots=True)
class PrecisionRecallF1:
    """The Table 1 triple."""

    precision: float
    recall: float
    f1: float


def confusion_matrix(
    y_true: Sequence[int], y_pred: Sequence[int]
) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def precision_recall_f1(
    y_true: Sequence[int], y_pred: Sequence[int]
) -> PrecisionRecallF1:
    """Precision, recall and their harmonic mean for the positive class."""
    cm = confusion_matrix(y_true, y_pred)
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) else 0.0
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return PrecisionRecallF1(precision=precision, recall=recall, f1=f1)
