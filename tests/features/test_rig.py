"""Entropy / conditional entropy / RIG tests (Equation 1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.features.rig import (
    conditional_entropy,
    entropy,
    joint_from_pairs,
    marginal_y,
    relative_information_gain,
)


class TestEntropy:
    def test_uniform_two_outcomes_is_one_bit(self):
        assert entropy({"a": 5, "b": 5}) == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        assert entropy({"a": 10}) == 0.0

    def test_empty_is_zero(self):
        assert entropy({}) == 0.0

    def test_uniform_four_outcomes_is_two_bits(self):
        assert entropy({k: 1 for k in "abcd"}) == pytest.approx(2.0)

    def test_known_biased_coin(self):
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert entropy({"h": 9, "t": 1}) == pytest.approx(expected)

    def test_zero_counts_ignored(self):
        assert entropy({"a": 4, "b": 0}) == 0.0


class TestJointConstruction:
    def test_joint_from_pairs(self):
        joint = joint_from_pairs([("x", 1), ("x", 0), ("y", 1)])
        assert joint == {"x": {1: 1.0, 0: 1.0}, "y": {1: 1.0}}

    def test_marginal_y(self):
        joint = joint_from_pairs([("x", 1), ("x", 0), ("y", 1)])
        assert marginal_y(joint) == {1: 2.0, 0: 1.0}


class TestConditionalEntropy:
    def test_perfect_predictor_gives_zero(self):
        joint = joint_from_pairs([("a", 1)] * 5 + [("b", 0)] * 5)
        assert conditional_entropy(joint) == pytest.approx(0.0)

    def test_independent_x_keeps_full_entropy(self):
        pairs = (
            [("a", 1)] * 5 + [("a", 0)] * 5
            + [("b", 1)] * 5 + [("b", 0)] * 5
        )
        joint = joint_from_pairs(pairs)
        assert conditional_entropy(joint) == pytest.approx(1.0)

    def test_smoothing_raises_entropy_of_sparse_cells(self):
        joint = joint_from_pairs([("a", 1), ("b", 0)])
        assert conditional_entropy(joint, smoothing=0.0) == 0.0
        assert conditional_entropy(joint, smoothing=1.0) > 0.0

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            conditional_entropy({}, smoothing=-1)


class TestRig:
    def test_perfect_predictor_rig_is_one(self):
        joint = joint_from_pairs([("a", 1)] * 5 + [("b", 0)] * 5)
        assert relative_information_gain(joint) == pytest.approx(1.0)

    def test_independent_rig_is_zero(self):
        pairs = (
            [("a", 1)] * 5 + [("a", 0)] * 5
            + [("b", 1)] * 5 + [("b", 0)] * 5
        )
        assert relative_information_gain(
            joint_from_pairs(pairs)
        ) == pytest.approx(0.0)

    def test_degenerate_y_gives_zero(self):
        joint = joint_from_pairs([("a", 1), ("b", 1)])
        assert relative_information_gain(joint) == 0.0

    def test_smoothing_never_produces_negative(self):
        pairs = [("a", 1), ("a", 0), ("b", 1)]
        assert relative_information_gain(
            joint_from_pairs(pairs), smoothing=5.0
        ) >= 0.0


@st.composite
def joint_tables(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    pairs = [
        (draw(st.sampled_from("abcd")), draw(st.sampled_from([0, 1])))
        for _ in range(n)
    ]
    return joint_from_pairs(pairs)


@given(joint_tables())
def test_rig_bounded_zero_one(joint):
    value = relative_information_gain(joint)
    assert 0.0 <= value <= 1.0 + 1e-9


@given(joint_tables(), st.floats(min_value=0.0, max_value=3.0))
def test_smoothing_monotonically_shrinks_gain(joint, smoothing):
    base = relative_information_gain(joint, smoothing=0.0)
    smoothed = relative_information_gain(joint, smoothing=smoothing)
    assert smoothed <= base + 1e-9
