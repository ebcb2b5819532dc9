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
scratch, also in O(n) per row: every value it checks is the row's value
plus a prefix sum of swings in elimination order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetError, FeatureSpace
from .rejector import RejectModel, band_classes, classify, error_bound, exact_value


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
    """The violations found in one explanation, the class of each of its
    certificate points (ascending feature order), and how many of its
    verification comparisons were knife edges decided exactly."""

    violations: tuple[str, ...] = ()
    witness_classes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    knife_edges: int = 0

    def __bool__(self) -> bool:
        return not self.violations


def _permutation(order, n: int, name: str) -> list[int]:
    """``order`` as a list, checked to be a permutation of the n feature
    indices; ``int()`` would take 0.9 for 0 and true for 1."""
    order = np.asarray(order)
    if order.size and order.dtype.kind not in "iu" or sorted(order.tolist()) != list(range(n)):
        raise ValueError(f"{name} must be a permutation of the feature indices")
    return order.tolist()


@dataclass(frozen=True, eq=False)
class ExplanationBatch:
    """One elimination pass over the rows of ``instances``.

    Per row it keeps the class, the mask of removed features, the extremum
    side of each kept feature's witness (``at_max``), the query count and
    the knife-edge count.  ``position[i]`` is feature i's step in the
    elimination order.

    The witness of kept feature i frees i and every feature removed before
    i in the elimination order: its point is the instance with those
    coordinates moved to the corner of its side.
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


def _exact_freed(box: BoxExtrema, extreme, products, freed, i=None) -> float:
    """The exact decision value of a row whose rounded products are
    ``products``, with the features of mask ``freed``, and feature i if
    given, moved to their terms in ``extreme``."""
    point = np.where(freed, extreme, products)
    if i is not None:
        point[i] = extreme[i]
    return exact_value(point.tolist(), box.bias)


def _freed(rm: RejectModel, box: BoxExtrema, extreme, extremum, products, removed, i):
    """Each row's extremum with feature i freed as well, its class and the
    knife-edge masks of its ``t_plus`` and ``t_minus`` comparisons.

    ``extreme`` holds the extreme terms of the extremum's side; freeing i
    moves ``extremum`` by extreme[i] - w_i * x_i.
    """
    moved = extremum + (extreme[i] - products[:, i])
    return (moved, *band_classes(moved, rm.t_minus, rm.t_plus, box.bound,
                                 lambda k: _exact_freed(box, extreme, products[k], removed[k], i)))


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
    order = _permutation(np.arange(n) if order is None else order, n, "order")

    start = time.perf_counter()
    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    classes, knife_edges = classify(rm, X)
    removed, at_max, queries, knives = _eliminate(
        rm, box, classes, X * box.weights, X @ box.weights + box.bias, order)
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    return ExplanationBatch(box, X, classes, removed, at_max, position, queries,
                            knife_edges + knives, time.perf_counter() - start)


def verify_batch(rm: RejectModel, space: FeatureSpace, batch: ExplanationBatch) -> list[VerificationReport]:
    """Re-check every row of an elimination pass from scratch, in O(n) time
    and memory per row.

    Per row it checks that the instance lies in the box, that the kept values
    entail the class (sufficiency), that no kept feature can be dropped alone
    (minimality), and that each kept feature's certificate is classified
    differently.  The certificate contract holds by construction: the witness
    of ``ExplanationBatch``'s freeing rule, one per kept feature, moves no
    other kept feature and lies in the box with the instance.

    Every checked value is the row's value d(x) plus the swings
    extreme[j] - w_j * x_j, on one extremum side, of the features F it
    frees: the removed features eliminated before step p, and kept feature
    i if any.  Per side, one (rows, n + 1) prefix table of swings in
    elimination order gives them all, with no witness point built: column
    ``position[i]`` plus i's swing is kept feature i's certificate on its
    witness's side; then, in place, column n (p = n) checks sufficiency and
    column i < n plus i's swing minimality for kept feature i.  Cells of
    removed features are nan, class 0 with no knife edge, and masked off.
    Each value is a dot product plus at most n additions of rounded
    differences, as ``error_bound`` counts them, so ``band_classes`` at the
    box's bound decides it exactly, re-deciding one near a threshold from
    F's terms.  ``batch.position`` must be a permutation.

    Returns one report per row: its violations, its certificates' classes and
    its knife-edge count.
    """
    n, names = len(space), space.names
    position = np.asarray(batch.position)
    _permutation(position, n, "position")
    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    X, classes, removed, at_max = batch.instances, batch.classes, batch.removed, batch.at_max
    rows, kept = len(X), ~removed
    values = X @ box.weights + box.bias
    elimination = np.argsort(position)
    holds = np.ones((rows, n + 1), dtype=bool)
    witness_classes = np.zeros((rows, n), dtype=np.int8)   # int8 while the float tables live
    knife_edges = np.zeros(rows, dtype=int)

    def decide(table, extreme, step):
        """The classes of ``table``'s cells, adding each row's knife edges to
        ``knife_edges``; cell (k, i) frees row k's features removed before
        step ``step[i]``, and feature i if i < n, to their terms in ``extreme``."""
        width = table.shape[1]

        def exact(e):
            k, i = divmod(e, width)
            freed = removed[k] & (position < step[i])
            return _exact_freed(box, extreme, X[k] * box.weights, freed, i if i < n else None)

        got, near_plus, near_minus = band_classes(table.ravel(), rm.t_minus, rm.t_plus,
                                                  box.bound, exact)
        for near in (near_plus, near_minus):
            knife_edges[:] += near.reshape(rows, width).sum(axis=1)
        return got.reshape(rows, width)

    for at, extreme in ((False, box.min_term), (True, box.max_term)):
        swing = extreme - X * box.weights
        # column p: the row's value plus the swings removed at steps before p
        prefix = np.zeros((rows, n + 1))
        prefix[:, 0] = values
        np.copyto(prefix[:, 1:], swing[:, elimination], where=removed[:, elimination])
        np.cumsum(prefix, axis=1, out=prefix)
        side = kept & (at_max == at)
        # the side's witnesses: column position[i] plus i's swing
        estimate = prefix.take(position, axis=1)
        estimate += swing
        estimate[~side] = np.nan
        # in place: column n checks sufficiency, column i < n plus i's swing minimality
        np.add(swing, prefix[:, n:], out=prefix[:, :n])
        del swing   # before either table is decided, so that at most four live at a time
        prefix[:, :n][removed] = np.nan
        np.copyto(witness_classes, decide(estimate, extreme, position), where=side)
        del estimate
        holds &= decide(prefix, extreme, np.full(n + 1, n)) == classes[:, None]

    witness_classes = witness_classes.astype(int)
    violations: list[list[str]] = [[] for _ in range(rows)]
    for k in np.flatnonzero(~space.rows_inside(X)).tolist():
        violations[k].append("instance lies outside the box")
    for k in np.flatnonzero(~holds[:, n]).tolist():
        violations[k].append("sufficiency: kept features do not entail the class")
    for k, i in np.argwhere(holds[:, :n] & kept).tolist():
        violations[k].append(f"minimality: feature {names[i]!r} is droppable")
    for k, i in np.argwhere((witness_classes == classes[:, None]) & kept).tolist():
        violations[k].append(f"certificate for feature {names[i]!r} does not flip the class")
    return [VerificationReport(tuple(v), witness_classes[k][kept[k]], knives)
            for k, (v, knives) in enumerate(zip(violations, knife_edges.tolist()))]
