"""Metric tests: confusion, P/R/F1."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml.metrics import confusion_matrix, precision_recall_f1


class TestConfusion:
    def test_counts(self):
        cm = confusion_matrix([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([1], [1, 0])

    def test_n(self):
        cm = confusion_matrix([1, 0], [0, 1])
        assert cm.n == 2


class TestPrf:
    def test_paper_f1_definition(self):
        # F1 = harmonic mean of P and R (section 5.1).
        result = precision_recall_f1([1, 1, 1, 0, 0], [1, 1, 0, 1, 0])
        assert result.precision == pytest.approx(2 / 3)
        assert result.recall == pytest.approx(2 / 3)
        expected_f1 = 2 * (2 / 3) * (2 / 3) / (4 / 3)
        assert result.f1 == pytest.approx(expected_f1)

    def test_perfect(self):
        result = precision_recall_f1([1, 0, 1], [1, 0, 1])
        assert result == type(result)(1.0, 1.0, 1.0)

    def test_no_predictions_zero_precision(self):
        result = precision_recall_f1([1, 1], [0, 0])
        assert result.precision == 0.0
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_table1_values_reproducible_from_counts(self):
        # Sanity: the paper's M&A row (0.744, 0.806) gives F1 0.773.
        p, r = 0.744, 0.806
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.773, abs=0.002)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=60))
def test_prf_bounds(pairs):
    y_true = [a for a, _ in pairs]
    y_pred = [b for _, b in pairs]
    result = precision_recall_f1(y_true, y_pred)
    for value in (result.precision, result.recall, result.f1):
        assert 0.0 <= value <= 1.0
    low, high = sorted([result.precision, result.recall])
    assert low - 1e-9 <= result.f1 <= high + 1e-9
