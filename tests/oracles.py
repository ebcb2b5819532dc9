"""Independent test oracles.

Each function here recomputes an answer through a different route than the
library under test: exhaustive enumeration, closed-form case analysis, or
brute-force search.  They are deliberately slow and simple.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

MAX_ORACLE_FREE = 20
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


def grid_best_risk(labels, values, w_r, steps=100):
    """Exhaustive scan of the threshold grid; returns (risk, index, t_plus, t_minus)."""
    labels = list(labels)
    values = list(values)
    upper = max(values)
    lower = min(values)
    total = len(values)
    best = None
    for i in range(1, steps + 1):
        frac = i * (1.0 / steps)
        t_plus = frac * upper
        t_minus = frac * lower
        rejected = [t_minus <= d <= t_plus for d in values]
        n_rej = sum(rejected)
        n_acc = total - n_rej
        if n_acc:
            wrong = sum(
                1
                for lab, d, rej in zip(labels, values, rejected)
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
    from svcreject.explainer import negate, prediction_formula
    from svcreject.feasibility import PartialAssignment, satisfiable
    from svcreject.rejector import predict_with_reject

    x = space.check_instance(x)
    n = len(space)
    klass = predict_with_reject(rm, x)
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
