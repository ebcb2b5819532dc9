"""Subset-minimal explanations for predictions of a linear model with reject band.

An explanation of instance x is a subset of its feature-value pairs that
forces the same prediction for every completion of the remaining features
inside their domains.  A linear function attains its extrema over a box at
corners, so the largest and smallest decision value with a subset of
coordinates pinned are the pinned products plus each free feature's extreme
term (``BoxExtrema``), not a general LP solve.  The reject rule
(``rejector.band_classes``) is monotone in the decision value, so a partial
assignment entails the class exactly when both extrema get that class.
Dropping one feature at a time and keeping it exactly when entailment
breaks yields a subset-minimal result.  Freeing feature i moves each box
extremum by a constant, so each step costs O(1) per row and one pass
explains a whole batch of rows in O(n) per row (Marques-Silva et al.,
"Explaining Naive Bayes and Other Linear Classifiers with Polynomial Time
and Delay", NeurIPS 2020).  ``verify_batch`` re-checks a whole pass from
scratch, also O(n) per row plus the witnesses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetError, FeatureSpace
from .rejector import RejectModel, band_classes, classify, error_bound, exact_value

# coordinates of witness points that verify_batch builds and classifies at
# once; a row's witnesses hold at most n * n, so a chunk is at least one row
VERIFY_CHUNK_CELLS = 1 << 18


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
class VerificationReport:
    """The violations found in one explanation, and the class of each of its
    certificate points (ascending feature order)."""

    violations: tuple[str, ...] = ()
    witness_classes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __bool__(self) -> bool:
        return not self.violations


def _check_order(order, n: int) -> list[int]:
    order = list(range(n)) if order is None else [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the feature indices")
    return order


def witness_points(free, at_max, x, max_corner, min_corner) -> np.ndarray:
    """Certificate points, one row per kept feature: ``x`` with the ``free``
    coordinates moved to the corner of the row's extremum side."""
    corner = np.where(np.asarray(at_max)[:, None], max_corner, min_corner)
    return np.where(free, corner, x)


@dataclass(frozen=True, eq=False)
class ExplanationBatch:
    """One elimination pass over the rows of ``instances``.

    Per row it keeps the class, the mask of removed features, the extremum
    side of each kept feature's witness (``at_max``), the query count and
    the knife-edge count.
    """

    box: BoxExtrema
    instances: np.ndarray
    classes: np.ndarray
    removed: np.ndarray
    at_max: np.ndarray
    position: np.ndarray
    queries: np.ndarray
    knife_edges: np.ndarray
    seconds: float

    def __len__(self) -> int:
        return int(self.instances.shape[0])

    def witnesses(self, start: int, stop: int):
        """The witnesses of rows start..stop-1, one per kept feature in row
        order and ascending feature order: the row (counted from start), the
        feature, the free mask and whether the witness sits on the maximum
        side.

        The witness of kept feature i frees i and every feature removed
        before i in the elimination order.
        """
        removed = self.removed[start:stop]
        rows, kept = np.nonzero(~removed)
        free = removed[rows] & (self.position < self.position[kept][:, None])
        free[np.arange(kept.size), kept] = True
        return rows, kept, free, self.at_max[start:stop][rows, kept]


def _freed(rm: RejectModel, box: BoxExtrema, extreme, extremum, products, removed, i):
    """Each row's extremum with feature i freed as well, its class and the
    knife-edge masks of its ``t_plus`` and ``t_minus`` comparisons.

    ``extreme`` holds the extreme terms of the extremum's side; freeing i
    moves ``extremum`` by extreme[i] - w_i * x_i.
    """
    moved = extremum + (extreme[i] - products[:, i])

    def exact(k):
        point = np.where(removed[k], extreme, products[k])
        point[i] = extreme[i]
        return exact_value(point.tolist(), box.bias)

    return (moved, *band_classes(moved, rm.t_minus, rm.t_plus, box.bound, exact))


def _eliminate(rm: RejectModel, box: BoxExtrema, classes, products, values, order):
    """Greedy elimination, vectorized across rows.

    ``classes`` are the rows' classes, ``products`` their rounded products
    w_i * x_i and ``values`` their decision values.  Each step frees one
    feature and classifies both moved extrema; the feature stays when
    either extremum's class differs from the row's, with its witness at the
    maximum when the maximum's class does, and is dropped otherwise.

    The counters count the questions the elimination asks of the class's
    negation: +1 whether the minimum can reach t_plus, -1 whether the
    maximum can reach t_minus, and the reject class whether the maximum can
    pass t_plus and, only if not, whether the minimum can pass t_minus.
    """
    rows, n = products.shape
    removed = np.zeros((rows, n), dtype=bool)
    at_max = np.zeros((rows, n), dtype=bool)
    queries = np.zeros(rows, dtype=int)
    knife_edges = np.zeros(rows, dtype=int)
    high, low = values.copy(), values.copy()
    positive, negative, reject = classes == 1, classes == -1, classes == 0
    for i in order:
        high_moved, high_class, high_plus, high_minus = _freed(
            rm, box, box.max_term, high, products, removed, i)
        low_moved, low_class, low_plus, low_minus = _freed(
            rm, box, box.min_term, low, products, removed, i)
        flips_high = high_class != classes
        second = reject & ~flips_high
        queries += 1 + second
        knife_edges += (positive & low_plus) | (negative & high_minus) | (reject & high_plus)
        knife_edges += second & low_minus
        at_max[flips_high, i] = True
        drop = ~flips_high & (low_class == classes)
        removed[drop, i] = True
        high[drop] = high_moved[drop]
        low[drop] = low_moved[drop]
    return removed, at_max, queries, knife_edges


def explain_batch(rm: RejectModel, space: FeatureSpace, X, order=None) -> ExplanationBatch:
    """Minimal explanations of every row of X in one elimination pass.

    Iterates features in ``order`` (default: ascending index) and drops
    each one unless freeing it lets some completion change the class.  The
    results are subset-minimal by construction: a dropped feature stays
    droppable when later drops only free more coordinates, and every kept
    feature carries a witness completion that flips the prediction.  Every
    class decision goes through ``band_classes``; at most 2n queries per
    row.
    """
    n = len(space)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DatasetError(f"instances have shape {X.shape}, expected (*, {n})")
    if not space.rows_inside(X).all():
        raise DatasetError("instance lies outside the declared feature domains")
    order = _check_order(order, n)

    start = time.perf_counter()
    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    classes, knife_edges = classify(rm, X)
    removed, at_max, queries, knives = _eliminate(
        rm, box, classes, X * box.weights, X @ box.weights + box.bias, order)
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    return ExplanationBatch(box, X, classes, removed, at_max, position, queries,
                            knife_edges + knives, time.perf_counter() - start)


def _entailment(rm: RejectModel, box: BoxExtrema, values, classes, kept):
    """Per row, whether its kept values entail its class; per kept feature
    (``np.nonzero(kept)`` order), whether they still do with it freed.

    Entailment holds when both extrema get the row's class.  The extrema
    are computed from scratch: the kept products plus the free features'
    extreme terms, moved by one feature's swing for the second answer.
    """
    products = values * box.weights
    rows, features = np.nonzero(kept)
    # element e < len(values) is row e; the rest free one kept feature each
    row = np.concatenate((np.arange(len(values)), rows))
    feature = np.concatenate((np.full(len(values), -1), features))
    holds = np.ones(row.size, dtype=bool)
    for extreme in (box.min_term, box.max_term):
        terms = np.where(kept, products, extreme)
        base = terms.sum(axis=1) + box.bias
        swing = extreme[features] - products[rows, features]
        estimate = np.concatenate((base, base[rows] + swing))

        def exact(e, terms=terms, extreme=extreme):
            point = terms[row[e]].copy()
            if feature[e] >= 0:
                point[feature[e]] = extreme[feature[e]]
            return exact_value(point.tolist(), box.bias)

        got, _, _ = band_classes(estimate, rm.t_minus, rm.t_plus, box.bound, exact)
        holds &= got == classes[row]
    return holds[:len(values)], holds[len(values):]


def verify_batch(rm: RejectModel, space: FeatureSpace, batch: ExplanationBatch) -> list[VerificationReport]:
    """Re-check every row of an elimination pass from scratch.

    Per row it checks that (a) the kept values entail the class, (b) no kept
    feature can be dropped alone, (c) every kept feature has a certificate
    and no other feature has one, and (d) every certificate lies in the box,
    moves no other kept feature and is classified differently.  Sufficiency
    and minimality are decided from the rows, their classes and their
    removed masks alone, from the box's extrema classified by
    ``band_classes``.  The certificates are the witness points that
    ``batch.witnesses`` lays out, built and classified once each, in chunks
    of at most ``VERIFY_CHUNK_CELLS`` coordinates.
    Returns one report per row, with the class of each of its certificates.
    """
    n, names = len(space), space.names
    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    step = max(1, VERIFY_CHUNK_CELLS // max(1, n * n))
    reports: list[VerificationReport] = []
    for start in range(0, len(batch), step):
        stop = min(start + step, len(batch))
        X, classes = batch.instances[start:stop], batch.classes[start:stop]
        kept = ~batch.removed[start:stop]
        rows, features, free, at_max = batch.witnesses(start, stop)
        points = witness_points(free, at_max, X[rows], box.max_corner, box.min_corner)
        violations: list[list[str]] = [[] for _ in range(len(X))]
        sufficient, droppable = _entailment(rm, box, X, classes, kept)
        for k in np.flatnonzero(~sufficient).tolist():
            violations[k].append("sufficiency: kept features do not entail the class")
        for k, i in zip(*(axis[droppable] for axis in np.nonzero(kept))):
            violations[k].append(f"minimality: feature {names[i]!r} is droppable")
        certified = np.zeros(kept.shape, dtype=bool)
        certified[rows, features] = True
        for k, i in zip(*np.nonzero(certified != kept)):
            violations[k].append(f"kept feature {names[i]!r} has no certificate" if kept[k, i]
                                 else f"certificate for feature {names[i]!r}, which is not kept")
        others = kept[rows]
        others[np.arange(rows.size), features] = False
        moves = np.any(others & (points != X[rows]), axis=1)
        witness_classes, _ = classify(rm, points)
        for message, bad in (("lies outside the box", ~space.rows_inside(points)),
                             ("moves another kept feature", moves),
                             ("does not flip the class", witness_classes == classes[rows])):
            for t in np.flatnonzero(bad).tolist():
                violations[rows[t]].append(
                    f"certificate for feature {names[features[t]]!r} {message}")
        per_row = np.split(witness_classes, np.searchsorted(rows, np.arange(1, len(X))))
        reports += [VerificationReport(tuple(v), c) for v, c in zip(violations, per_row)]
    return reports
