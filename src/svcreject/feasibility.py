"""The decision kernel every comparison of a decision value goes through, and
the box's extreme terms that entailment questions are answered from.

Every entailment question reduces to: does some point of the box, with a
subset of coordinates pinned, satisfy  w . z + bias REL c?  A linear
function attains its extrema at box corners, so the answer is the pinned
products plus each free feature's extreme term (``BoxExtrema``), not a
general LP solve.

A decision value is *defined* as the correctly rounded sum of the rounded
products w_i * z_i and the bias (``exact_value``).  That definition does not
depend on summation order, and rounding is monotone, so the largest value
over a box is the exact value of the largest terms: the predictor, the
extremum scans and the verifier all agree bit for bit.  Hot paths compute
values in float and re-decide only those within ``error_bound`` of their
threshold exactly (a floating-point filter, Shewchuk 1997); such knife
edges are counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureSpace

RELATIONS = ("<", "<=", ">", ">=")
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
UNIT_ROUNDOFF = 2.0 ** -53
SMALLEST_SUBNORMAL = 2.0 ** -1074


def exact_value(terms, bias: float) -> float:
    """The decision value: ``math.fsum`` of the rounded products and the bias."""
    return math.fsum([*terms, bias])


def error_bound(scale, n_features: int):
    """How far a float decision value may lie from ``exact_value``.

    ``scale`` bounds |bias| + sum |w_i * z_i| over the points concerned
    (scalar or per value).  A dot product plus bias, in any summation order
    and with or without fused multiply-adds, errs by at most
    gamma_{n+2} * scale; an elimination pass adds at most n additions and
    roundings of differences worth 2u * scale, and the exact value itself is
    rounded once.  Altogether that stays below 2 * gamma_{n+3} * scale
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and 4.2),
    plus one subnormal per rounded product for underflow.
    """
    k = n_features + 3
    gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
    return 2.0 * gamma * scale + 2.0 * k * SMALLEST_SUBNORMAL


def decide(values, relation: str, threshold: float, bound, exact):
    """Elementwise ``values REL threshold``, answered as the exact values would.

    ``values`` (1-d) are float estimates within ``bound`` of the exact
    values; an element closer than that to the threshold is re-decided from
    ``exact(k)``.  Returns the answers and the mask of re-decided elements.
    """
    answers = _compare(values, relation, threshold)
    near = np.abs(values - threshold) <= bound
    if near.any():
        for k in np.flatnonzero(near).tolist():
            answers[k] = _compare(exact(k), relation, threshold)
    return answers, near


@dataclass(frozen=True, eq=False)
class BoxExtrema:
    """Per-feature extremes of w_i * z_i over a box, and where they lie.

    ``max_term[i]``/``min_term[i]`` is the largest/smallest rounded product
    over [lower_i, upper_i], attained at ``max_corner[i]``/``min_corner[i]``
    (zero weights pin to the lower bound).  ``bound`` is ``error_bound`` for
    every decision value over the box.
    """

    weights: np.ndarray
    bias: float
    max_term: np.ndarray
    min_term: np.ndarray
    max_corner: np.ndarray
    min_corner: np.ndarray
    bound: float

    @classmethod
    def of(cls, weights, bias: float, space: FeatureSpace) -> "BoxExtrema":
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(space),):
            raise ValueError(f"model has {w.size} weights but the space has {len(space)} features")
        at_lower, at_upper = w * space.lower, w * space.upper
        scale = abs(bias) + math.fsum(np.maximum(np.abs(at_lower), np.abs(at_upper)).tolist())
        return cls(
            weights=w,
            bias=float(bias),
            max_term=np.maximum(at_lower, at_upper),
            min_term=np.minimum(at_lower, at_upper),
            max_corner=np.where(w > 0, space.upper, space.lower),
            min_corner=np.where(w >= 0, space.lower, space.upper),
            bound=float(error_bound(scale, w.size)),
        )


@dataclass(frozen=True, eq=False)
class LinearAtom:
    """One inequality  weights . z + bias  REL  threshold."""

    weights: np.ndarray
    bias: float
    relation: str
    threshold: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias) and np.isfinite(self.threshold)):
            raise ValueError("atom coefficients must be finite")

    def negated(self) -> "LinearAtom":
        return LinearAtom(self.weights, self.bias, NEGATED[self.relation], self.threshold)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"LinearAtom(d {self.relation} {self.threshold})"


def _compare(value, relation: str, threshold: float):
    if relation == "<":
        return value < threshold
    if relation == "<=":
        return value <= threshold
    if relation == ">":
        return value > threshold
    return value >= threshold
