"""Soft-margin linear SVC training and the affine decision function.

Training solves the standard problem

    min  1/2 ||w||^2 + C * sum(xi_i)
    s.t. y_i (w . x_i + b) >= 1 - xi_i,   xi_i >= 0

via its dual, updating the maximal-violating pair of multipliers per
iteration.  The intercept stays an explicit unregularized variable (it is
recovered from the KKT conditions), so feature domains are untouched by any
augmentation trick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset

ETA_FLOOR = 1e-12
BOUND_SNAP = 1e-10
# updates between shrink checks, LIBSVM's constant; the interval is min(m, this)
SHRINK_INTERVAL = 1000
# rows per block of a BLAS matrix-vector product (see _leaving)
GEMV_BLOCK = 4


class TrainingError(ValueError):
    """Unusable training input (single class, non-finite values...)."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Weight vector and intercept defining d(x) = w . x + b."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")

    def __len__(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True)
class TrainerConfig:
    C: float = 1.0
    tolerance: float = 1e-6
    max_passes: int = 10_000

    def __post_init__(self):
        if not (self.C > 0 and np.isfinite(self.C)):
            raise ValueError("C must be positive and finite")
        if not (self.tolerance > 0 and np.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")
        if self.max_passes < 1:
            raise ValueError("max_passes must be a positive integer")


@dataclass(frozen=True)
class TrainReport:
    primal_objective: float
    passes_used: int
    converged: bool
    dual_gap: float


def _side_penalties(y: np.ndarray, alpha: np.ndarray, C: float) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the up and low sides as additive penalties: 0 for a member,
    -inf (up) or +inf (low) for a non-member."""
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    return np.where(up, 0.0, -np.inf), np.where(low, 0.0, np.inf)


def _leaving(rows: np.ndarray, m: int, scores: np.ndarray, up_pen: np.ndarray,
             low_pen: np.ndarray, tolerance: float) -> np.ndarray:
    """Mask of the working rows to shrink out of the working set.

    A row leaves when it lies on one side only and its score is further than
    the gap beyond the other side's extreme score.  Without that margin,
    early checks, while scores still move by about the gap, left out rows
    that the loop selected later.  Nothing leaves once the gap is within
    ``tolerance``; before that, the two extreme rows always stay.
    """
    up_max = np.max(scores + up_pen)
    low_min = np.min(scores + low_pen)
    spread = up_max - low_min
    if not spread > tolerance:
        return np.zeros(rows.size, dtype=bool)
    leave = (((low_pen > 0) & (scores < low_min - spread))
             | ((up_pen < 0) & (scores > up_max + spread)))
    # a BLAS matrix-vector product runs in blocks of GEMV_BLOCK rows and may
    # round a trailing partial block differently: so the full product's tail
    # rows stay last, with a whole number of blocks before them
    tail = m % GEMV_BLOCK
    leave[rows >= m - tail] = False
    leave[np.flatnonzero(leave)[:(leave.sum() - rows.size + tail) % GEMV_BLOCK]] = False
    return leave


def train_soft_margin(train: LabeledDataset, config: TrainerConfig = TrainerConfig()) -> tuple[LinearModel, TrainReport]:
    """Fit the soft-margin SVC; deterministic for fixed data and config.

    One pass is one pair update.  Stops when the maximal dual-feasibility
    violation over all rows drops to ``config.tolerance`` or
    ``config.max_passes`` is hit.

    Shrinking (Joachims 1999; LIBSVM, Chang & Lin 2011, section 5.1): every
    ``min(m, SHRINK_INTERVAL)`` updates, rows that cannot be selected soon
    leave the working set (``_leaving``), and an update costs O(n) per
    working row.  When the working set's gap closes, the left-out rows'
    scores are recomputed from ``w`` and the check repeats over all rows.
    The working rows keep their incrementally updated scores, so as long as
    no left-out row would have been selected, every update is bit for bit
    the one the unshrunk loop makes.
    """
    X = np.asarray(train.X, dtype=float)
    y = np.asarray(train.y, dtype=float)
    if X.size and not np.all(np.isfinite(X)):
        raise TrainingError("training data contains non-finite values")
    if len(np.unique(y)) < 2:
        raise TrainingError("training data must contain both classes")

    m, n = X.shape
    C = config.C
    alpha = np.zeros(m)
    w = np.zeros(n)
    # score_t = y_t - w . x_t; KKT expressed without the intercept
    scores = y.copy()
    up_pen, low_pen = _side_penalties(y, alpha, C)
    # the working set: its row numbers, and compact copies of the per-row
    # arrays (the full arrays themselves while no row is left out)
    rows = np.arange(m)
    Xw, yw, aw, sw, upw, loww = X, y, alpha, scores, up_pen, low_pen
    interval = min(m, SHRINK_INTERVAL)

    def write_back():
        for full, part in ((alpha, aw), (scores, sw), (up_pen, upw), (low_pen, loww)):
            full[rows] = part

    def unshrink():
        write_back()
        out = np.ones(m, dtype=bool)
        out[rows] = False
        scores[out] = y[out] - X[out] @ w
        return np.arange(m), (X, y, alpha, scores, up_pen, low_pen)

    passes = 0
    gap = np.inf
    converged = False
    while passes < config.max_passes:
        i = int(np.argmax(sw + upw))
        j = int(np.argmin(sw + loww))
        gap = (sw[i] + upw[i]) - (sw[j] + loww[j])
        if gap <= config.tolerance:
            if rows.size == m:
                converged = True
                break
            rows, (Xw, yw, aw, sw, upw, loww) = unshrink()
            continue

        diff = Xw[i] - Xw[j]
        eta = max(float(diff @ diff), ETA_FLOOR)
        step = gap / eta
        step = min(step,
                   C - aw[i] if yw[i] > 0 else aw[i],
                   aw[j] if yw[j] > 0 else C - aw[j])
        aw[i] += yw[i] * step
        aw[j] -= yw[j] * step
        for k in (i, j):
            if aw[k] < BOUND_SNAP * C:
                aw[k] = 0.0
            elif aw[k] > (1.0 - BOUND_SNAP) * C:
                aw[k] = C
            upw[k] = 0.0 if (aw[k] < C if yw[k] > 0 else aw[k] > 0) else -np.inf
            loww[k] = 0.0 if (aw[k] < C if yw[k] < 0 else aw[k] > 0) else np.inf
        w += step * diff
        sw -= step * (Xw @ diff)
        passes += 1

        if passes % interval == 0 and passes < config.max_passes:
            leave = _leaving(rows, m, sw, upw, loww, config.tolerance)
            if leave.any():
                write_back()
                keep = ~leave
                rows = rows[keep]
                Xw, yw, aw, sw, upw, loww = (a[keep] for a in (Xw, yw, aw, sw, upw, loww))

    if rows.size < m:  # the budget ran out with rows left out: report over all rows
        unshrink()
        gap = np.max(scores + up_pen) - np.min(scores + low_pen)
        converged = bool(gap <= config.tolerance)

    # recompute scores once to clear incremental drift before picking b
    scores = y - X @ w
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        b = float(scores[free].mean())
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        hi = scores[up].max() if up.any() else 0.0
        lo = scores[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)

    model = LinearModel(w, b)
    margins = y * (X @ w + b)
    slacks = np.maximum(0.0, 1.0 - margins)
    objective = float(0.5 * (w @ w) + C * slacks.sum())
    report = TrainReport(
        primal_objective=objective,
        passes_used=passes,
        converged=converged,
        dual_gap=float(gap),
    )
    return model, report


def decision_values(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """d(x) for every row of X."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return np.zeros(0)
    if X.ndim != 2 or X.shape[1] != len(model):
        raise ValueError(f"matrix has shape {X.shape}, expected (*, {len(model)})")
    return X @ model.weights + model.bias
