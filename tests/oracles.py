"""Independent test oracles.

Each function here recomputes an answer through a different route than the
library under test: exhaustive enumeration, closed-form case analysis, or
brute-force search.  They are deliberately slow and simple.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from svcreject.explainer import BoxExtrema, VerificationReport
from svcreject.rejector import classify, exact_value
from svcreject.trainer import (
    BOUND_SNAP,
    ETA_FLOOR,
    LinearModel,
    TrainerConfig,
    TrainingError,
    TrainReport,
)

MAX_ORACLE_FREE = 20
RELATIONS = ("<", "<=", ">", ">=")
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def soft_margin_optimum(X, y, C):
    """Exact soft-margin SVC optimum by enumerating dual active sets.

    Every KKT point of the dual assigns each multiplier to one of
    {at 0, free, at C}; trying all 3^m patterns and solving the resulting
    equality systems finds the global optimum for desk-sized problems.
    Returns the optimal primal objective value.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    m = X.shape[0]
    if m > 9:
        raise ValueError("active-set enumeration is for tiny problems only")
    Yx = y[:, None] * X
    Q = Yx @ Yx.T
    tol = 1e-9

    best = np.inf
    for pattern in itertools.product((0, 1, 2), repeat=m):
        free = [i for i, p in enumerate(pattern) if p == 1]
        upper = [i for i, p in enumerate(pattern) if p == 2]
        alpha = np.zeros(m)
        alpha[upper] = C

        if free:
            k = len(free)
            A = np.zeros((k + 1, k + 1))
            A[:k, :k] = Q[np.ix_(free, free)]
            A[:k, k] = y[free]
            A[k, :k] = y[free]
            rhs = np.empty(k + 1)
            rhs[:k] = 1.0 - (Q[np.ix_(free, upper)] @ alpha[upper] if upper else 0.0)
            rhs[k] = -np.dot(y[upper], alpha[upper]) if upper else 0.0
            try:
                sol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                continue
            alpha[free] = sol[:k]
            mu = sol[k]
            if np.any(alpha[free] < -tol) or np.any(alpha[free] > C + tol):
                continue
            alpha = np.clip(alpha, 0.0, C)
            grad = Q @ alpha - 1.0
            ok = all(grad[i] + mu * y[i] >= -1e-7 for i in range(m) if pattern[i] == 0)
            ok = ok and all(grad[i] + mu * y[i] <= 1e-7 for i in upper)
            if not ok:
                continue
        else:
            if abs(np.dot(y, alpha)) > tol:
                continue
            grad = Q @ alpha - 1.0
            mu_lo, mu_hi = -np.inf, np.inf
            for i in range(m):
                g = grad[i]
                if pattern[i] == 0:  # need g + mu*y >= 0
                    if y[i] > 0:
                        mu_lo = max(mu_lo, -g)
                    else:
                        mu_hi = min(mu_hi, g)
                else:  # at C, need g + mu*y <= 0
                    if y[i] > 0:
                        mu_hi = min(mu_hi, -g)
                    else:
                        mu_lo = max(mu_lo, g)
            if mu_lo > mu_hi + 1e-7:
                continue

        w = Yx.T @ alpha
        obj = best_primal_with_bias(X, y, w, C)
        best = min(best, obj)
    return best


def reference_train_soft_margin(train, config=TrainerConfig()):
    """The maximal-violating-pair loop over all rows, the referee for
    ``trainer.train_soft_margin``, which makes its updates a working set at a
    time: here every update scans all rows, rebuilds both side masks and
    moves every score by a full matrix-vector product.

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
    objective = float(0.5 * (w @ w) + C * slacks.sum())
    report = TrainReport(
        primal_objective=objective,
        passes_used=passes,
        converged=converged,
        dual_gap=float(gap),
    )
    return model, report


def best_primal_with_bias(X, y, w, C):
    """Primal objective for weight vector w with the intercept optimized out.

    The hinge total is convex piecewise linear in b, so its minimum lies at
    a breakpoint b = y_i - w . x_i.
    """
    scores = y - X @ w
    best = np.inf
    for b in scores:
        margins = y * (X @ w + b)
        obj = 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())
        best = min(best, obj)
    return best


def grid_best_risk(labels, model, X, w_r, steps=100):
    """Exhaustive scan of the threshold grid; returns (risk, index, t_plus, t_minus).

    The grid comes from the float decision values ``X @ w + b``, as
    ``calibrate`` builds it, but each row is classified by its exact value:
    ``math.fsum`` of the rounded products w_i * x_i and the bias.
    """
    labels = list(labels)
    X = np.asarray(X, dtype=float)
    w, b = model.weights.tolist(), float(model.bias)
    values = (X @ model.weights + model.bias).tolist()
    exact = [math.fsum([*(x * wi for x, wi in zip(row, w)), b]) for row in X.tolist()]
    upper = max(values)
    lower = min(values)
    total = len(values)
    best = None
    for i in range(1, steps + 1):
        frac = i * (1.0 / steps)
        t_plus = frac * upper
        t_minus = frac * lower
        rejected = [t_minus <= d <= t_plus for d in exact]
        n_rej = sum(rejected)
        n_acc = total - n_rej
        if n_acc:
            wrong = sum(
                1
                for lab, d, rej in zip(labels, exact, rejected)
                if not rej and (1.0 if d > t_plus else -1.0) != lab
            )
            err = wrong / n_acc
        else:
            err = 0.0
        risk = err + w_r * (n_rej / total)
        if best is None or risk < best[0]:
            best = (risk, i, t_plus, t_minus)
    return best


def minimal_explanation_via_vertices(oracle, weights, bias, atoms, x, lower, upper, order):
    """Algorithm-1 style elimination with entailment decided by a vertex oracle.

    ``atoms`` are the negated-formula disjuncts as (relation, threshold)
    pairs; ``oracle(relation, threshold, fixed)`` must report satisfiability
    over the box restricted by ``fixed``.
    """
    fixed = {i: float(v) for i, v in enumerate(x)}
    for i in order:
        value = fixed.pop(i)
        if any(oracle(rel, thr, fixed) for rel, thr in atoms):
            fixed[i] = value
    return tuple(sorted(fixed))


def vertex_sat(weights, bias, relation, threshold, fixed, lower, upper):
    """Plain-python corner enumeration, no shared code with the library."""
    n = len(weights)
    free = [i for i in range(n) if i not in fixed]
    base = bias + sum(weights[i] * v for i, v in fixed.items())
    if not free:
        return _OPS[relation](base, threshold)
    for corner in itertools.product(*[(lower[i], upper[i]) for i in free]):
        value = base + sum(weights[i] * c for i, c in zip(free, corner))
        if _OPS[relation](value, threshold):
            return True
    return False


def satisfiable_vertex_oracle(atom, pa, space) -> bool:
    """Brute-force check over all 2^k corners of the free sub-box.

    Linear functions attain their extrema at vertices, so enumerating
    corners decides satisfiability.  Refuses more than MAX_ORACLE_FREE free
    coordinates.
    """
    w = atom.weights
    n = w.shape[0]
    if len(space) != n:
        raise ValueError(f"atom has {n} weights but the space has {len(space)} features")
    pa.pinned(space)  # index range and domain of the pinned values
    free = np.array([i for i in range(n) if i not in pa.fixed], dtype=int)
    k = free.size
    if k > MAX_ORACLE_FREE:
        raise ValueError(f"{k} free coordinates exceed the oracle limit of {MAX_ORACLE_FREE}")
    base = float(atom.bias) + sum(w[i] * v for i, v in pa.fixed.items())
    if k == 0:
        return bool(_OPS[atom.relation](base, atom.threshold))
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1
    corners = space.lower[free] + bits * (space.upper[free] - space.lower[free])
    values = base + corners @ w[free]
    return bool(np.any(_OPS[atom.relation](values, atom.threshold)))


def minimal_explanation_by_queries(rm, space, x, order=None):
    """Elimination with a fresh O(n) feasibility query per step.

    The query-per-step form of the elimination, the reference for the
    batched pass: every step asks ``satisfiable`` about the negated formula
    with the instance's remaining values pinned.  Returns
    (class, kept indices, removed indices, certificates, queries).
    """
    x = np.asarray(x, dtype=float)
    if not space.rows_inside(x[None, :]).all():
        raise ValueError("instance lies outside the declared feature domains")
    n = len(space)
    klass = classify_one(rm, x)
    neg_atoms = negate(prediction_formula(rm, klass))
    queries = 0
    fixed = {i: float(x[i]) for i in range(n)}
    certificates = {}
    for i in (range(n) if order is None else order):
        value = fixed.pop(int(i))
        pa = PartialAssignment(fixed)
        for atom in neg_atoms:
            queries += 1
            result = satisfiable(atom, pa, space)
            if result:
                fixed[int(i)] = value
                certificates[int(i)] = result.witness
                break
    kept = tuple(sorted(fixed))
    removed = tuple(sorted(set(range(n)) - set(fixed)))
    return klass, kept, removed, certificates, queries


# --- the formula layer --------------------------------------------------------
# Each class as a conjunction of linear atoms, and its negation by De Morgan:
# a second encoding of the reject rule, independent of the library's
# ``band_classes`` at the box extrema, that the references decide through.

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


def prediction_formula(rm, klass: int) -> tuple[LinearAtom, ...]:
    """Atoms whose conjunction holds exactly where the model outputs klass.

    The reject class needs both band inequalities; either decided class is a
    single strict atom.
    """
    w, b = rm.model.weights, rm.model.bias
    if klass == 0:
        return (
            LinearAtom(w, b, "<=", rm.t_plus),
            LinearAtom(w, b, ">=", rm.t_minus),
        )
    if klass == 1:
        return (LinearAtom(w, b, ">", rm.t_plus),)
    if klass == -1:
        return (LinearAtom(w, b, "<", rm.t_minus),)
    raise ValueError("class must be -1, 0 or +1")


def negate(atoms) -> tuple[LinearAtom, ...]:
    """De Morgan: negate every atom, conjunction becomes disjunction.

    The class's formula is entailed where every negated atom is
    unsatisfiable over the box.
    """
    return tuple(atom.negated() for atom in atoms)


# --- the single-query layer ---------------------------------------------------
# One feasibility question at a time, with the pinned coordinates as a dict:
# the form the elimination had before it was batched, kept as the reference
# that the batched pass and the vertex oracle are compared through.

def decision_value(model, x) -> float:
    """d(x) = w . x + b for one instance."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(model),):
        raise ValueError(f"instance has shape {x.shape}, expected ({len(model)},)")
    return float(np.dot(model.weights, x) + model.bias)


def classify_one(rm, x) -> int:
    """The class of instance x with the reject band: ``classify`` of a one-row batch."""
    return int(classify(rm, np.asarray(x, dtype=float)[None])[0][0])


def predict(model, x) -> int:
    """+1 where d(x) > 0, otherwise -1 (the d(x) = 0 tie maps to -1)."""
    return 1 if decision_value(model, x) > 0 else -1


def holds_at(atom, x) -> bool:
    """Does the atom hold at point x, decided on the exact decision value?"""
    value = exact_value((atom.weights * np.asarray(x, dtype=float)).tolist(), float(atom.bias))
    return bool(_OPS[atom.relation](value, atom.threshold))


@dataclass(frozen=True)
class PartialAssignment:
    """Coordinates pinned to concrete values; the rest range over the box."""

    fixed: dict[int, float]

    @classmethod
    def of_instance(cls, x) -> "PartialAssignment":
        return cls({i: float(v) for i, v in enumerate(np.asarray(x, dtype=float))})

    @classmethod
    def empty(cls) -> "PartialAssignment":
        return cls({})

    def pinned(self, space) -> tuple[np.ndarray, np.ndarray]:
        """The mask of pinned coordinates and a point holding their values
        (zero elsewhere), after checking each index and value against the box."""
        n = len(space)
        lower, upper = space.lower.tolist(), space.upper.tolist()
        mask = np.zeros(n, dtype=bool)
        point = np.zeros(n)
        for i, v in self.fixed.items():
            if not 0 <= i < n:
                raise ValueError(f"fixed index {i} out of range for {n} features")
            if not lower[i] <= v <= upper[i]:
                raise ValueError(
                    f"fixed value {v} for feature {space.names[i]!r} "
                    f"outside its domain [{lower[i]}, {upper[i]}]"
                )
            mask[i], point[i] = True, v
        return mask, point

    def __len__(self) -> int:
        return len(self.fixed)


@dataclass(frozen=True, eq=False)
class SatResult:
    satisfiable: bool
    witness: np.ndarray | None = None
    knife_edge: bool = False

    def __bool__(self) -> bool:
        return self.satisfiable


def _pinned_extremum(box, pinned, point, want_max: bool) -> float:
    """Exact one-sided extremum over the box with the ``pinned`` coordinates
    of ``point`` fixed: their products plus the extreme terms of the rest."""
    free = box.max_term if want_max else box.min_term
    return exact_value(np.where(pinned, box.weights * point, free).tolist(), box.bias)


def linear_extrema(weights, bias: float, pa: PartialAssignment, space) -> tuple[float, float]:
    """Exact (min, max) of weights . z + bias over the restricted box."""
    box = BoxExtrema.of(weights, bias, space)
    pinned, point = pa.pinned(space)
    return (_pinned_extremum(box, pinned, point, False),
            _pinned_extremum(box, pinned, point, True))


def satisfiable(atom, pa: PartialAssignment, space) -> SatResult:
    """Decide the atom over the restricted box; return a witness point when SAT.

    The extremum of the relevant side is attained on the closed box and
    computed exactly, so strict relations are decided exactly: d > c is
    satisfiable iff max > c, d <= c iff min <= c, and so on.  The witness is
    the box corner of that side with the pinned coordinates kept.
    """
    box = BoxExtrema.of(atom.weights, atom.bias, space)
    pinned, point = pa.pinned(space)
    want_max = atom.relation in (">", ">=")
    extremum = _pinned_extremum(box, pinned, point, want_max)
    knife = abs(extremum - atom.threshold) <= box.bound
    if not _OPS[atom.relation](extremum, atom.threshold):
        return SatResult(False, None, knife)
    corner = box.max_corner if want_max else box.min_corner
    return SatResult(True, np.where(pinned, point, corner), knife)


def decide(values, relation: str, threshold: float, bound, exact):
    """Elementwise ``values REL threshold``, answered as the exact values
    would: an element within ``bound`` of the threshold is re-decided from
    ``exact(k)``."""
    answers = _OPS[relation](values, threshold)
    for k in np.flatnonzero(np.abs(values - threshold) <= bound).tolist():
        answers[k] = _OPS[relation](exact(k), threshold)
    return answers


def _entailed(formula, box, low, high, exact_low, exact_high):
    """Per element: does every decision value in [low, high] satisfy every
    atom of the formula?"""
    holds = True
    for atom in formula:
        if atom.relation in (">", ">="):
            ok = decide(low, atom.relation, atom.threshold, box.bound, exact_low)
        else:
            ok = decide(high, atom.relation, atom.threshold, box.bound, exact_high)
        holds = holds & ok
    return holds


@dataclass(frozen=True, eq=False)
class ExplainedRow:
    """One explained row as the closed-form reference reads it: the instance,
    its class, the mask of kept features and the certificate point of each
    feature that has one."""

    instance: np.ndarray
    klass: int
    kept: np.ndarray
    certificates: dict[int, np.ndarray]


def verify_explanation_closed_form(rm, space, row: ExplainedRow) -> VerificationReport:
    """Per-row closed-form verification, the reference for the library's
    verification core.

    (a) fixing the kept values entails the explained class: the box's
    extrema, computed from scratch, stay on the class's side of the band;
    (b) dropping any single kept feature no longer does: the extrema moved
    by that feature's swing leave it; (c) every certificate point is
    predicted as a different class.  It does not check the certificate
    contract (one per kept feature, inside the box, other kept features
    unmoved).
    """
    violations: list[str] = []
    kept = np.flatnonzero(row.kept)
    pinned, point = PartialAssignment(
        {i: float(row.instance[i]) for i in kept.tolist()}).pinned(space)

    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    formula = prediction_formula(rm, row.klass)
    products = box.weights * point
    low_terms = np.where(pinned, products, box.min_term)
    high_terms = np.where(pinned, products, box.max_term)
    # element 0 has the kept features pinned; element 1 + j also frees kept[j]
    low = low_terms.sum() + box.bias + np.concatenate(([0.0], box.min_term[kept] - products[kept]))
    high = high_terms.sum() + box.bias + np.concatenate(([0.0], box.max_term[kept] - products[kept]))

    def exact(terms, side):
        def value(k):
            moved = terms.copy()
            if k:
                moved[kept[k - 1]] = side[kept[k - 1]]
            return exact_value(moved.tolist(), box.bias)
        return value

    entailed = _entailed(formula, box, low, high,
                         exact(low_terms, box.min_term), exact(high_terms, box.max_term))
    if not entailed[0]:
        violations.append("sufficiency: kept features do not entail the class")
    for i in kept[entailed[1:]].tolist():
        violations.append(f"minimality: feature {space.names[i]!r} is droppable")

    if row.certificates:
        items = sorted(row.certificates.items())
        flipped = classify(rm, np.array([p for _, p in items]))[0] != row.klass
        for (i, _), ok in zip(items, flipped.tolist()):
            if not ok:
                violations.append(
                    f"certificate for feature {space.names[i]!r} does not flip the class"
                )
    return VerificationReport(tuple(violations))


# --- the witness-matrix layer -------------------------------------------------
# Every certificate point laid out in full, |kept|·n coordinates a row: the
# referee for the verifier's prefix-sum estimates and for the JSONL writer.


def witness_layout(batch, start: int, stop: int):
    """The witnesses of rows start..stop-1 of ``batch``, one per kept feature
    in row order and ascending feature order: the row (counted from start),
    the feature, the free mask and whether the witness sits on the maximum
    side.

    The witness of kept feature i frees i and every feature removed before
    i in the elimination order.
    """
    removed = batch.removed[start:stop]
    rows, kept = np.nonzero(~removed)
    free = removed[rows] & (batch.position < batch.position[kept][:, None])
    free[np.arange(kept.size), kept] = True
    return rows, kept, free, batch.at_max[start:stop][rows, kept]


def witness_points(free, at_max, x, max_corner, min_corner) -> np.ndarray:
    """Certificate points, one row per kept feature: ``x`` with the ``free``
    coordinates moved to the corner of the row's extremum side."""
    corner = np.where(np.asarray(at_max)[:, None], max_corner, min_corner)
    return np.where(free, corner, x)
