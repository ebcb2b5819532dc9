"""The reject rule, its decision kernel, and reject-band calibration by
empirical-risk minimization over a threshold grid.

A trained linear model abstains on instances whose decision value falls
inside [t_minus, t_plus].  The band is picked from a fixed grid of candidate
pairs scaled off the extreme decision values seen on calibration data, by
minimizing  risk = error_ratio + w_r * rejection_ratio.

A decision value is *defined* as the correctly rounded sum of the rounded
products w_i * z_i and the bias (``exact_value``).  That definition does not
depend on summation order, and rounding is monotone, so the largest value
over a box is the exact value of the largest terms: the predictor, the
extremum scans and the verifier all agree bit for bit.  Hot paths compute
values in float and re-decide only those within ``error_bound`` of their
threshold exactly (a floating-point filter, Shewchuk 1997; its one entry is
``band_classes``); such knife edges are counted.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureSpace, LabeledDataset
from .trainer import LinearModel, decision_values

DEFAULT_GRID_STEPS = 100
UNIT_ROUNDOFF = 2.0 ** -53
SMALLEST_SUBNORMAL = 2.0 ** -1074
# the largest box scale and threshold magnitude the kernel takes (DBL_MAX/4; see box_scale)
MAX_SCALE = sys.float_info.max / 4


@dataclass(frozen=True, eq=False)
class RejectModel:
    """A linear model plus the calibrated reject band and rejection cost."""

    model: LinearModel
    t_minus: float
    t_plus: float
    w_r: float

    def __post_init__(self):
        if not (abs(self.t_minus) <= MAX_SCALE and abs(self.t_plus) <= MAX_SCALE):
            raise ValueError(f"thresholds t_minus and t_plus must be finite and at most "
                             f"{MAX_SCALE!r} in magnitude, got ({self.t_minus}, {self.t_plus})")
        if not self.t_minus <= 0.0 <= self.t_plus:
            raise ValueError(
                f"thresholds must satisfy t_minus <= 0 <= t_plus, "
                f"got ({self.t_minus}, {self.t_plus})"
            )
        if not 0.0 < self.w_r <= 1.0:
            raise ValueError("rejection cost w_r must lie in (0, 1]")


@dataclass(frozen=True)
class RiskReport:
    error_ratio: float
    rejection_ratio: float
    risk: float
    grid_index: int | None = None

    def __post_init__(self):
        for name in ("error_ratio", "rejection_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"risk_report.{name} must lie in [0, 1], not {value!r}")


@dataclass(frozen=True)
class EvalMetrics:
    """Accuracy with/without the reject band plus predicted-class counts."""

    accuracy_without_reject: float
    accuracy_with_reject: float | None
    rejection_ratio: float
    negative: int
    rejected: int
    positive: int


def exact_value(terms, bias: float) -> float:
    """The decision value: ``math.fsum`` of the rounded products and the bias."""
    return math.fsum([*terms, bias])


def box_scale(weights, bias: float, space: FeatureSpace) -> float:
    """|bias| + sum_i max(|w_i * lower_i|, |w_i * upper_i|), the ``scale``
    ``error_bound`` takes for every decision value over the box; computing
    it never warns or raises, a product or sum beyond float range reading
    as inf.  A ValueError unless it is below ``MAX_SCALE`` (DBL_MAX/4):
    then every value the kernel computes is finite with room to spare, as
    each decision value, extremum and verified value lies within
    scale * (1 + 2 * gamma_{n+3}), each swing within twice the scale, and
    each difference of a value and a threshold (at most ``MAX_SCALE``)
    below DBL_MAX/2.
    """
    scale = math.inf
    with np.errstate(over="ignore"), suppress(OverflowError):   # fsum's intermediate overflow
        scale = abs(bias) + math.fsum(np.maximum(np.abs(weights * space.lower),
                                                 np.abs(weights * space.upper)).tolist())
    if not scale < MAX_SCALE:
        raise ValueError(f"weights, bias and feature bounds reach the scale |bias| + sum of "
                         f"max |w_i * bound_i| = {scale!r}, which must be below {MAX_SCALE!r}")
    return scale


def error_bound(scale, n_features: int):
    """How far a float decision value may lie from ``exact_value``.

    ``scale`` bounds |bias| + sum |w_i * z_i| over the points concerned
    (scalar or per value).  A dot product plus bias, in any summation order
    and with or without fused multiply-adds, errs by at most
    gamma_{n+2} * scale; an elimination pass's running extrema, and every
    value ``verify_batch`` checks (the row's value plus a prefix sum of
    swings), add at most n additions and roundings of differences worth
    2u * scale, and the exact value itself is rounded once.  Altogether that stays below 2 * gamma_{n+3} * scale
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and 4.2),
    plus one subnormal per rounded product for underflow.
    """
    k = n_features + 3
    gamma = k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)
    return 2.0 * gamma * scale + 2.0 * k * SMALLEST_SUBNORMAL


def band_classes(values, t_minus: float, t_plus: float, bound, exact):
    """The reject rule: +1 above ``t_plus``, -1 below ``t_minus``, 0 on the
    band and its ends, decided as the exact values would decide it: an
    element of ``values`` within ``bound`` of either threshold is re-decided
    once from ``exact(k)`` (the kernel's floating-point filter).

    Every class decision goes through here.  Returns the classes and the
    knife-edge masks of the ``t_plus`` and ``t_minus`` comparisons.
    """
    above, below = values > t_plus, values < t_minus
    near_plus = np.abs(values - t_plus) <= bound
    near_minus = np.abs(values - t_minus) <= bound
    for k in np.flatnonzero(near_plus | near_minus).tolist():
        value = exact(k)
        above[k], below[k] = value > t_plus, value < t_minus
    # above wins should the band be inverted; mask arithmetic is several
    # times faster than nested np.where
    return above.astype(int) - (below & ~above), near_plus, near_minus


def _decision_inputs(model: LinearModel, X):
    """Float decision values of the rows of X, each one's error bound, and
    the exact value of row k as ``exact(k)``."""
    X = np.asarray(X, dtype=float)
    d = decision_values(model, X)
    w, b = model.weights, model.bias
    bound = error_bound(np.abs(X) @ np.abs(w) + abs(b), w.size) if d.size else d

    def exact(k):
        return exact_value((X[k] * w).tolist(), b)

    return d, bound, exact


def calibrate(model: LinearModel, train: LabeledDataset, w_r: float,
              grid_steps: int = DEFAULT_GRID_STEPS) -> tuple[RejectModel, RiskReport]:
    """Pick the band of minimal empirical risk from the threshold grid; ties
    go to the narrowest band (smallest grid index).

    Pair i of the grid, i = 1..steps, is i/steps of the extreme float
    decision values.  Its classes come from ``band_classes``, so the risk
    scores the rows as ``classify`` and ``evaluate`` predict them: the error
    ratio among accepted rows (0 when every row is rejected, so the risk
    degrades to exactly w_r) plus w_r times the rejection ratio.
    """
    values, bound, exact = _decision_inputs(model, train.X)
    if values.size == 0:
        raise ValueError("no decision values to build a grid from")
    if grid_steps < 1:
        raise ValueError("grid steps must be a positive integer")
    upper, lower = float(values.max()), float(values.min())
    if not (upper > 0.0 > lower):
        raise ValueError(
            f"decision values must straddle zero to calibrate a reject band "
            f"(min {lower}, max {upper})"
        )
    total, frac = values.size, 1.0 / grid_steps
    best: RiskReport | None = None
    for i in range(1, grid_steps + 1):
        t_plus, t_minus = i * frac * upper, i * frac * lower
        classes, _, _ = band_classes(values, t_minus, t_plus, bound, exact)
        accepted = classes != 0
        n_accepted = np.count_nonzero(accepted)
        wrong = np.count_nonzero(accepted & (classes != train.y))
        error_ratio = wrong / n_accepted if n_accepted else 0.0
        rejection_ratio = (total - n_accepted) / total
        risk = error_ratio + w_r * rejection_ratio
        if best is None or risk < best.risk:
            best, pair = RiskReport(error_ratio, rejection_ratio, risk, i), (t_minus, t_plus)
    return RejectModel(model, *pair, w_r=w_r), best


def classify(rm: RejectModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the rows of X, and per row how many of its two threshold
    comparisons were knife edges re-decided by the exact kernel."""
    d, bound, exact = _decision_inputs(rm.model, X)
    classes, near_plus, near_minus = band_classes(d, rm.t_minus, rm.t_plus, bound, exact)
    return classes, near_plus.astype(int) + near_minus


def evaluate(rm: RejectModel, data: LabeledDataset) -> EvalMetrics:
    """Accuracy without the band (+1 above 0, -1 otherwise), accuracy among
    accepted instances, and predicted-class counts.  Accuracy-with-reject
    is None when every instance is rejected."""
    if len(data) == 0:
        return EvalMetrics(0.0, None, 0.0, 0, 0, 0)
    d, bound, exact = _decision_inputs(rm.model, data.X)
    plain, _, _ = band_classes(d, 0.0, 0.0, bound, exact)
    acc_plain = float(np.mean(np.where(plain == 1, 1.0, -1.0) == data.y))
    pred, _, _ = band_classes(d, rm.t_minus, rm.t_plus, bound, exact)
    accepted = pred != 0
    if accepted.any():
        acc_ro = float(np.mean(pred[accepted] == data.y[accepted]))
    else:
        acc_ro = None
    return EvalMetrics(
        accuracy_without_reject=acc_plain,
        accuracy_with_reject=acc_ro,
        rejection_ratio=float(np.mean(~accepted)),
        negative=int(np.sum(pred == -1)),
        rejected=int(np.sum(pred == 0)),
        positive=int(np.sum(pred == 1)),
    )

