"""Soft-margin linear SVC training and the affine decision function.

Training solves the standard problem

    min  1/2 ||w||^2 + C * sum(xi_i)
    s.t. y_i (w . x_i + b) >= 1 - xi_i,   xi_i >= 0

via its dual, updating the maximal-violating pair of multipliers per
iteration, a working set of rows at a time.  The intercept stays an explicit
unregularized variable (it is recovered from the KKT conditions), so feature
domains are untouched by any augmentation trick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset

ETA_FLOOR = 1e-12
BOUND_SNAP = 1e-10
# rows per working set (Joachims 1999), half from each side's extreme scores
WORKING_SET = 256


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


def _working_set(up_scores: np.ndarray, low_scores: np.ndarray) -> np.ndarray:
    """Ascending row numbers of the next working set: the ``WORKING_SET // 2``
    rows with the highest up-side scores and as many with the lowest low-side
    scores, so the set always holds the maximal violating pair.  Every row
    while there are at most ``WORKING_SET``."""
    m = up_scores.size
    if m <= WORKING_SET:
        return np.arange(m)
    k = WORKING_SET // 2
    return np.union1d(np.argpartition(up_scores, m - k)[m - k:],
                      np.argpartition(low_scores, k - 1)[:k])


def train_soft_margin(train: LabeledDataset, config: TrainerConfig = TrainerConfig()) -> tuple[LinearModel, TrainReport]:
    """Fit the soft-margin SVC; deterministic for fixed data, config and BLAS
    thread count.

    One pass is one pair update.  Stops when the maximal dual-feasibility
    violation over all rows drops to ``config.tolerance`` or
    ``config.max_passes`` is hit.

    Working sets (Joachims 1999; the maximal-violating-pair argument of
    LIBSVM, Chang & Lin 2011): each outer step takes a working set
    (``_working_set``) and its Gram matrix, and makes pair updates inside it
    at O(|set| + n) each until the set's gap is within a tenth of the
    all-rows gap (or ``tolerance``).  Then ``w`` and every row's score move
    once, by the sum of the step directions, and the gap is checked over all
    rows.  The set holds the maximal violating pair, so its gap starts at the
    all-rows gap and every outer step makes at least one update.
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
    passes = 0
    while True:
        up_pen, low_pen = _side_penalties(y, alpha, C)
        up_scores, low_scores = scores + up_pen, scores + low_pen
        gap = float(np.max(up_scores) - np.min(low_scores))
        if gap <= config.tolerance or passes >= config.max_passes:
            break
        rows = _working_set(up_scores, low_scores)
        Xw, yw, aw, sw, upw, loww = (a[rows] for a in (X, y, alpha, scores, up_pen, low_pen))
        gram = Xw @ Xw.T
        # each update's step, +step at i and -step at j: w moves by Xw.T @ steps,
        # the same steps the working scores move by.  The alpha differences
        # would also hold the BOUND_SNAP snaps, which those scores never see.
        steps = np.zeros(rows.size)
        target = max(config.tolerance, gap / 10.0)
        while passes < config.max_passes:
            i = int(np.argmax(sw + upw))
            j = int(np.argmin(sw + loww))
            pair_gap = (sw[i] + upw[i]) - (sw[j] + loww[j])
            if pair_gap <= target:
                break
            diff = Xw[i] - Xw[j]
            eta = max(float(diff @ diff), ETA_FLOOR)
            step = pair_gap / eta
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
            steps[i] += step
            steps[j] -= step
            sw -= step * (gram[i] - gram[j])
            passes += 1
        alpha[rows] = aw
        dw = Xw.T @ steps
        w += dw
        scores -= X @ dw
    converged = gap <= config.tolerance

    # recompute scores once to clear incremental drift before picking b
    scores = y - X @ w
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        b = float(scores[free].mean())
    else:
        # neither side is empty: both classes are present and sum(y * alpha) = 0
        up_pen, low_pen = _side_penalties(y, alpha, C)
        b = float((np.max(scores + up_pen) + np.min(scores + low_pen)) / 2.0)

    model = LinearModel(w, b)
    margins = y * (X @ w + b)
    slacks = np.maximum(0.0, 1.0 - margins)
    objective = float(0.5 * (w @ w) + C * slacks.sum())
    report = TrainReport(
        primal_objective=objective,
        passes_used=passes,
        converged=converged,
        dual_gap=gap,
    )
    return model, report


def decision_values(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """d(x) for every row of X: one value per row, the bias alone when there
    are no features.  An empty X that is not a matrix has no rows."""
    X = np.asarray(X, dtype=float)
    if X.size == 0 and X.ndim != 2:
        return np.zeros(0)
    if X.ndim != 2 or X.shape[1] != len(model):
        raise ValueError(f"matrix has shape {X.shape}, expected (*, {len(model)})")
    return X @ model.weights + model.bias
