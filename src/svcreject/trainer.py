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
    max_margin_violation: float
    passes_used: int
    converged: bool
    dual_gap: float


def train_soft_margin(train: LabeledDataset, config: TrainerConfig = TrainerConfig()) -> tuple[LinearModel, TrainReport]:
    """Fit the soft-margin SVC; deterministic for fixed data and config.

    One pass is one pair update.  Stops when the maximal dual-feasibility
    violation drops to ``config.tolerance`` or ``config.max_passes`` is hit.
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
    gap = np.inf
    converged = False
    while passes < config.max_passes:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        up_scores = np.where(up, scores, -np.inf)
        low_scores = np.where(low, scores, np.inf)
        i = int(np.argmax(up_scores))
        j = int(np.argmin(low_scores))
        gap = up_scores[i] - low_scores[j]
        if gap <= config.tolerance:
            converged = True
            break

        diff = X[i] - X[j]
        eta = max(float(diff @ diff), ETA_FLOOR)
        step = gap / eta
        step = min(step,
                   C - alpha[i] if y[i] > 0 else alpha[i],
                   alpha[j] if y[j] > 0 else C - alpha[j])
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        for k in (i, j):
            if alpha[k] < BOUND_SNAP * C:
                alpha[k] = 0.0
            elif alpha[k] > (1.0 - BOUND_SNAP) * C:
                alpha[k] = C
        w += step * diff
        scores -= step * (X @ diff)
        passes += 1

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
    violation = float(np.max(np.maximum(0.0, 1.0 - margins) - slacks, initial=0.0))
    objective = float(0.5 * (w @ w) + C * slacks.sum())
    report = TrainReport(
        primal_objective=objective,
        max_margin_violation=violation,
        passes_used=passes,
        converged=converged,
        dual_gap=float(gap),
    )
    return model, report


def decision_value(model: LinearModel, x: np.ndarray) -> float:
    """d(x) = w . x + b."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(model),):
        raise ValueError(f"instance has shape {x.shape}, expected ({len(model)},)")
    return float(np.dot(model.weights, x) + model.bias)


def decision_values(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """d(x) for every row of X."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return np.zeros(0)
    if X.ndim != 2 or X.shape[1] != len(model):
        raise ValueError(f"matrix has shape {X.shape}, expected (*, {len(model)})")
    return X @ model.weights + model.bias


def predict(model: LinearModel, x: np.ndarray) -> int:
    """+1 where d(x) > 0, otherwise -1 (the d(x) = 0 tie maps to -1)."""
    return 1 if decision_value(model, x) > 0 else -1
