"""Reject-band calibration by empirical-risk minimization over a threshold grid.

A trained linear model abstains on instances whose decision value falls
inside [t_minus, t_plus].  The band is picked from a fixed grid of candidate
pairs scaled off the extreme decision values seen on calibration data, by
minimizing  risk = error_ratio + w_r * rejection_ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .feasibility import decide, error_bound, exact_value
from .trainer import LinearModel, decision_values

DEFAULT_GRID_STEPS = 100


class DegenerateGridError(ValueError):
    """Decision values do not straddle zero, so no threshold grid exists."""


@dataclass(frozen=True, eq=False)
class RejectModel:
    """A linear model plus the calibrated reject band and rejection cost."""

    model: LinearModel
    t_minus: float
    t_plus: float
    w_r: float

    def __post_init__(self):
        if not (np.isfinite(self.t_minus) and np.isfinite(self.t_plus)):
            raise ValueError("thresholds must be finite")
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


@dataclass(frozen=True)
class EvalMetrics:
    """Accuracy with/without the reject band plus predicted-class counts."""

    accuracy_without_reject: float
    accuracy_with_reject: float | None
    rejection_ratio: float
    negative_count: int
    rejected_count: int
    positive_count: int

    @property
    def total(self) -> int:
        return self.negative_count + self.rejected_count + self.positive_count


def band_classes(values, t_minus: float, t_plus: float, bound, exact):
    """The reject rule: +1 above ``t_plus``, -1 below ``t_minus``, 0 on the
    band and its ends, decided through the kernel (``feasibility.decide``).

    Every class decision goes through here.  Returns the classes and the
    knife-edge masks of the ``t_plus`` and ``t_minus`` comparisons.
    """
    above, near_plus = decide(values, ">", t_plus, bound, exact)
    below, near_minus = decide(values, "<", t_minus, bound, exact)
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


def threshold_grid(values, steps: int = DEFAULT_GRID_STEPS) -> list[tuple[float, float]]:
    """Candidate (t_plus, t_minus) pairs: the i-th pair is i/steps of the
    extreme decision values, i = 1..steps, ascending."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DegenerateGridError("no decision values to build a grid from")
    if steps < 1:
        raise ValueError("grid steps must be a positive integer")
    upper = float(values.max())
    lower = float(values.min())
    if not (upper > 0.0 > lower):
        raise DegenerateGridError(
            f"decision values must straddle zero to calibrate a reject band "
            f"(min {lower}, max {upper})"
        )
    frac = 1.0 / steps
    return [(i * frac * upper, i * frac * lower) for i in range(1, steps + 1)]


def empirical_risk(labels, classes, w_r: float) -> RiskReport:
    """Risk = error ratio among accepted + w_r * rejection ratio, scored from
    the predicted classes (0 rejects).

    With everything rejected the error ratio is defined as 0, so the risk
    degrades to exactly w_r.
    """
    labels = np.asarray(labels, dtype=float)
    classes = np.asarray(classes)
    if labels.shape != classes.shape:
        raise ValueError("labels and classes must have equal lengths")
    total = labels.size
    if total == 0:
        raise ValueError("empirical risk needs at least one point")
    accepted = classes != 0
    n_accepted = np.count_nonzero(accepted)
    rejection_ratio = (total - n_accepted) / total
    wrong = np.count_nonzero(accepted & (classes != labels))
    error_ratio = wrong / n_accepted if n_accepted else 0.0
    return RiskReport(error_ratio, rejection_ratio, error_ratio + w_r * rejection_ratio)


def calibrate(model: LinearModel, train: LabeledDataset, w_r: float,
              grid_steps: int = DEFAULT_GRID_STEPS) -> tuple[RejectModel, RiskReport]:
    """Pick the grid pair with minimal empirical risk; ties go to the
    narrowest band (smallest grid index).

    The grid is built from the float decision values; each pair's classes
    come from ``band_classes``, so the risk report scores the rows as
    ``classify`` and ``evaluate`` predict them.
    """
    values, bound, exact = _decision_inputs(model, train.X)
    grid = threshold_grid(values, grid_steps)
    best: RiskReport | None = None
    best_pair = None
    for idx, (t_plus, t_minus) in enumerate(grid, start=1):
        classes, _, _ = band_classes(values, t_minus, t_plus, bound, exact)
        report = empirical_risk(train.y, classes, w_r)
        if best is None or report.risk < best.risk:
            best = RiskReport(report.error_ratio, report.rejection_ratio, report.risk, idx)
            best_pair = (t_plus, t_minus)
    rm = RejectModel(model, t_minus=best_pair[1], t_plus=best_pair[0], w_r=w_r)
    return rm, best


def predict_with_reject(rm: RejectModel, x) -> int:
    """+1 above the band, -1 below, 0 inside (boundaries reject)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(rm.model),):
        raise ValueError(f"instance has shape {x.shape}, expected ({len(rm.model)},)")
    return int(predictions_with_reject(rm, x[None, :])[0])


def predictions_with_reject(rm: RejectModel, X) -> np.ndarray:
    return classify(rm, X)[0]


def classify(rm: RejectModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the rows of X, and per row how many of its two threshold
    comparisons were knife edges re-decided by the exact kernel."""
    d, bound, exact = _decision_inputs(rm.model, X)
    classes, near_plus, near_minus = band_classes(d, rm.t_minus, rm.t_plus, bound, exact)
    return classes, near_plus.astype(int) + near_minus


def evaluate(rm: RejectModel, data: LabeledDataset) -> EvalMetrics:
    """Accuracy without the band, accuracy among accepted instances, and
    predicted-class counts.  Accuracy-with-reject is None when every
    instance is rejected."""
    if len(data) == 0:
        return EvalMetrics(0.0, None, 0.0, 0, 0, 0)
    d, bound, exact = _decision_inputs(rm.model, data.X)
    plain = np.where(d > 0.0, 1.0, -1.0)
    acc_plain = float(np.mean(plain == data.y))
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
        negative_count=int(np.sum(pred == -1)),
        rejected_count=int(np.sum(pred == 0)),
        positive_count=int(np.sum(pred == 1)),
    )


def metrics_to_json(rm: RejectModel, metrics: EvalMetrics) -> dict:
    return {
        "t_minus": rm.t_minus,
        "t_plus": rm.t_plus,
        "accuracy_without_reject": metrics.accuracy_without_reject,
        "accuracy_with_reject": metrics.accuracy_with_reject,
        "rejection_ratio": metrics.rejection_ratio,
        "negative": metrics.negative_count,
        "rejected": metrics.rejected_count,
        "positive": metrics.positive_count,
    }


def format_metrics_table(rm: RejectModel, metrics: EvalMetrics) -> str:
    """Aligned text table of the calibration metrics."""
    acc_ro = (
        f"{metrics.accuracy_with_reject:.2%}"
        if metrics.accuracy_with_reject is not None
        else "n/a"
    )
    headers = ["t_minus", "t_plus", "acc w/o reject", "acc w/ reject",
               "rejection", "negative", "rejected", "positive"]
    row = [
        f"{rm.t_minus:.4f}",
        f"{rm.t_plus:.4f}",
        f"{metrics.accuracy_without_reject:.2%}",
        acc_ro,
        f"{metrics.rejection_ratio:.2%}",
        str(metrics.negative_count),
        str(metrics.rejected_count),
        str(metrics.positive_count),
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.rjust(w) for v, w in zip(row, widths))
    return head + "\n" + body
