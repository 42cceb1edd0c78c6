"""Entropy and relative information gain (Equation 1 of the paper).

    RIG(Y|X) = (H(Y) - H(Y|X)) / H(Y)

*"Given two random variables X and Y, and given that Y is to be
transmitted, what fraction of bits would be saved if X was known at both
sender's and receiver's ends."*

The joint distribution is estimated from co-occurrence counts.  Because
instance-valued (IV) representations can have thousands of values that
each occur a handful of times, the empirical plug-in estimate of
``H(Y|X)`` is badly biased toward zero for sparse X; an optional Laplace
``smoothing`` pseudo-count counteracts that, mirroring what any practical
implementation over web-scale data must do.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Hashable, Iterable, Mapping

#: Joint counts: value of X -> (value of Y -> count).
JointCounts = Mapping[Hashable, Mapping[Hashable, float]]


def entropy(counts: Mapping[Hashable, float]) -> float:
    """Shannon entropy (bits) of a distribution given by counts."""
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    result = 0.0
    for count in counts.values():
        p = count / total
        if p <= 0:  # also guards subnormal counts underflowing to 0
            continue
        result -= p * math.log2(p)
    return result


def joint_from_pairs(
    pairs: Iterable[tuple[Hashable, Hashable]]
) -> dict[Hashable, dict[Hashable, float]]:
    """Accumulate joint counts from ``(x, y)`` observation pairs."""
    joint: dict[Hashable, dict[Hashable, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for x, y in pairs:
        joint[x][y] += 1.0
    return {x: dict(ys) for x, ys in joint.items()}


def _y_values(joint: JointCounts) -> set[Hashable]:
    values: set[Hashable] = set()
    for ys in joint.values():
        values.update(ys)
    return values


def marginal_y(joint: JointCounts) -> dict[Hashable, float]:
    """Marginal counts of Y from a joint table."""
    marginal: dict[Hashable, float] = defaultdict(float)
    for ys in joint.values():
        for y, count in ys.items():
            marginal[y] += count
    return dict(marginal)


def conditional_entropy(joint: JointCounts, smoothing: float = 0.0) -> float:
    """H(Y|X) in bits, with optional Laplace smoothing per (x, y) cell."""
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    y_values = _y_values(joint)
    if not y_values:
        return 0.0
    grand_total = 0.0
    weighted = 0.0
    for ys in joint.values():
        row = {y: ys.get(y, 0.0) + smoothing for y in y_values}
        row_total = sum(row.values())
        raw_total = sum(ys.values())
        if row_total <= 0:
            continue
        weighted += raw_total * entropy(row)
        grand_total += raw_total
    if grand_total <= 0:
        return 0.0
    return weighted / grand_total


def relative_information_gain(
    joint: JointCounts, smoothing: float = 0.0
) -> float:
    """RIG(Y|X) per Equation 1; 0 when H(Y) is 0."""
    h_y = entropy(marginal_y(joint))
    if h_y <= 0:
        return 0.0
    h_y_given_x = conditional_entropy(joint, smoothing=smoothing)
    gain = (h_y - h_y_given_x) / h_y
    # Smoothing can push H(Y|X) above H(Y) for uninformative X; the
    # quantity is a *gain*, clamp at zero.
    return max(gain, 0.0)
