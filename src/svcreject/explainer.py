"""Subset-minimal explanations for predictions of a linear model with reject band.

An explanation of instance x is a subset of its feature-value pairs that
forces the same prediction for every completion of the remaining features
inside their domains.  The predicted class is encoded as a conjunction of
linear atoms; entailment of that formula by a partial assignment holds when
every atom of its negation is unsatisfiable over the box.  Dropping one
feature at a time and keeping it exactly when entailment breaks yields a
subset-minimal result in at most 2n queries.  For one linear atom, freeing
feature i moves the box extremum by a constant, so each query costs O(1)
per row and one pass explains a whole batch of rows in O(n) per row
(Marques-Silva et al., "Explaining Naive Bayes and Other Linear
Classifiers with Polynomial Time and Delay", NeurIPS 2020).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataset import DatasetError, FeatureSpace
from .feasibility import BoxExtrema, LinearAtom, PartialAssignment, decide, exact_value
from .rejector import RejectModel, classify, predictions_with_reject


@dataclass(frozen=True, eq=False)
class Explanation:
    """Kept feature-value pairs plus certificates that none can be dropped."""

    instance: np.ndarray
    klass: int
    kept: tuple[tuple[int, float], ...]
    removed: tuple[int, ...]
    certificates: dict[int, np.ndarray]
    time_seconds: float
    queries: int
    knife_edge_queries: int = 0

    @property
    def kept_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.kept)

    def __len__(self) -> int:
        return len(self.kept)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def prediction_formula(rm: RejectModel, klass: int) -> tuple[LinearAtom, ...]:
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


def _check_order(order, n: int) -> list[int]:
    order = list(range(n)) if order is None else [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the feature indices")
    return order


def witness_points(free, at_max, x, max_corner, min_corner) -> np.ndarray:
    """Certificate points, one row per kept feature: ``x`` with the ``free``
    coordinates moved to the corner of the row's extremum side.

    Works on any element type, so writers can pick preformatted strings the
    same way the explainer picks floats.
    """
    corner = np.where(np.asarray(at_max)[:, None], max_corner, min_corner)
    return np.where(free, corner, x)


@dataclass(frozen=True, eq=False)
class ExplanationBatch:
    """One elimination pass over the rows of ``instances``.

    Per row it keeps the class, the mask of removed features, the extremum
    side of each kept feature's witness (``at_max``), the query count and
    the knife-edge count; ``explanation(k)`` turns row k into an
    ``Explanation``.
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

    def layout(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row k's kept features (ascending), the free mask of each one's
        witness, and whether that witness sits on the maximum side.

        The witness of kept feature i frees i and every feature removed
        before i in the elimination order.
        """
        removed = self.removed[k]
        kept = np.flatnonzero(~removed)
        free = removed & (self.position < self.position[kept][:, None])
        free[np.arange(kept.size), kept] = True
        return kept, free, self.at_max[k, kept]

    def explanation(self, k: int) -> Explanation:
        kept, free, at_max = self.layout(k)
        x = self.instances[k]
        points = witness_points(free, at_max, x, self.box.max_corner, self.box.min_corner)
        kept_list = kept.tolist()
        return Explanation(
            instance=x,
            klass=int(self.classes[k]),
            kept=tuple(zip(kept_list, x[kept].tolist())),
            removed=tuple(np.flatnonzero(self.removed[k]).tolist()),
            certificates=dict(zip(kept_list, points)),
            time_seconds=self.seconds / len(self),
            queries=int(self.queries[k]),
            knife_edge_queries=int(self.knife_edges[k]),
        )


def _eliminate(box: BoxExtrema, atoms, products: np.ndarray, values: np.ndarray, order):
    """Greedy elimination for rows of one class, vectorized across rows.

    ``atoms`` is the negated prediction formula, ``products`` the rows'
    rounded products w_i * x_i and ``values`` their decision values.
    Freeing feature i moves the maximum by max_term[i] - w_i * x_i and the
    minimum by min_term[i] - w_i * x_i, so each step is O(1) per row: the
    feature stays when some atom becomes satisfiable (in formula order,
    the first one picks the witness side) and is dropped otherwise.
    """
    rows, n = products.shape
    removed = np.zeros((rows, n), dtype=bool)
    at_max = np.zeros((rows, n), dtype=bool)
    queries = np.zeros(rows, dtype=int)
    knife_edges = np.zeros(rows, dtype=int)
    sides = [(atom, atom.relation in (">", ">=")) for atom in atoms]
    terms = {True: box.max_term, False: box.min_term}
    extremum = {want_max: values.copy() for _, want_max in sides}
    everyone = np.arange(rows)
    for i in order:
        moved = {want_max: ext + (terms[want_max][i] - products[:, i])
                 for want_max, ext in extremum.items()}
        open_rows = everyone
        for atom, want_max in sides:
            side = terms[want_max]

            def exact(k, rows=open_rows, side=side, i=i):
                point = np.where(removed[rows[k]], side, products[rows[k]])
                point[i] = side[i]
                return exact_value(point.tolist(), box.bias)

            sat, near = decide(moved[want_max][open_rows], atom.relation,
                               atom.threshold, box.bound, exact)
            queries[open_rows] += 1
            knife_edges[open_rows] += near
            if want_max:
                at_max[open_rows[sat], i] = True
            open_rows = open_rows[~sat]
        removed[open_rows, i] = True
        for want_max, ext in extremum.items():
            ext[open_rows] = moved[want_max][open_rows]
    return removed, at_max, queries, knife_edges


def explain_batch(rm: RejectModel, space: FeatureSpace, X, order=None) -> ExplanationBatch:
    """Minimal explanations of every row of X in one elimination pass.

    Iterates features in ``order`` (default: ascending index) and drops
    each one unless freeing it lets some completion change the class.  The
    results are subset-minimal by construction: a dropped feature stays
    droppable when later drops only free more coordinates, and every kept
    feature carries a witness completion that flips the prediction.  Every
    comparison goes through the exact decision kernel; at most 2n queries
    per row.
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
    products = X * box.weights
    values = X @ box.weights + box.bias
    removed = np.zeros(X.shape, dtype=bool)
    at_max = np.zeros(X.shape, dtype=bool)
    queries = np.zeros(X.shape[0], dtype=int)
    for klass in (-1, 0, 1):
        rows = np.flatnonzero(classes == klass)
        if rows.size:
            atoms = negate(prediction_formula(rm, klass))
            removed[rows], at_max[rows], queries[rows], knives = _eliminate(
                box, atoms, products[rows], values[rows], order)
            knife_edges[rows] += knives
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    return ExplanationBatch(box, X, classes, removed, at_max, position, queries,
                            knife_edges, time.perf_counter() - start)


def minimal_explanation(rm: RejectModel, space: FeatureSpace, x: np.ndarray,
                        order=None) -> Explanation:
    """The explanation of one instance: a one-row ``explain_batch``."""
    x = space.check_instance(x)
    return explain_batch(rm, space, x[None, :], order).explanation(0)


def _entailed(formula, box: BoxExtrema, low, high, exact_low, exact_high):
    """Per element: does every decision value in [low, high] satisfy every
    atom of the formula?"""
    holds = True
    for atom in formula:
        if atom.relation in (">", ">="):
            ok, _ = decide(low, atom.relation, atom.threshold, box.bound, exact_low)
        else:
            ok, _ = decide(high, atom.relation, atom.threshold, box.bound, exact_high)
        holds = holds & ok
    return holds


def verify_explanation(rm: RejectModel, space: FeatureSpace, expl: Explanation) -> VerificationReport:
    """Re-check sufficiency, minimality and certificate class flips in O(n)
    plus the certificates' size.

    (a) fixing the kept values entails the explained class: the box's
    extrema, computed from scratch, stay on the class's side of the band;
    (b) dropping any single kept feature no longer does: the extrema moved
    by that feature's swing leave it; (c) every certificate point is
    predicted as a different class.
    """
    violations: list[str] = []
    n = len(space)
    kept_idx = set(expl.kept_indices)
    if kept_idx | set(expl.removed) != set(range(n)) or kept_idx & set(expl.removed):
        violations.append("kept and removed do not partition the features")
    pinned, point = PartialAssignment(dict(expl.kept)).pinned(space)

    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    formula = prediction_formula(rm, expl.klass)
    kept = np.array(expl.kept_indices, dtype=int)
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

    if expl.certificates:
        items = sorted(expl.certificates.items())
        flipped = predictions_with_reject(rm, np.array([p for _, p in items])) != expl.klass
        for (i, _), ok in zip(items, flipped.tolist()):
            if not ok:
                violations.append(
                    f"certificate for feature {space.names[i]!r} does not flip the class"
                )
    return VerificationReport(not violations, tuple(violations))


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Per-class counts of how often each feature stays in an explanation."""

    counts: dict[int, np.ndarray]
    patterns: dict[int, int]
    n_features: int

    def to_json(self, feature_names=None) -> dict:
        names = list(feature_names) if feature_names is not None else [
            f"f{i + 1}" for i in range(self.n_features)
        ]
        return {
            "classes": {
                str(klass): {
                    "counts": dict(zip(names, self.counts[klass].tolist())),
                    "patterns": self.patterns[klass],
                }
                for klass in sorted(self.counts)
            }
        }

    def format_text(self, feature_names=None) -> str:
        names = list(feature_names) if feature_names is not None else [
            f"f{i + 1}" for i in range(self.n_features)
        ]
        label = {-1: "negative", 0: "rejected", 1: "positive"}
        headers = ["class", *names, "patterns"]
        rows = []
        for klass in sorted(self.counts):
            rows.append([
                label[klass],
                *(str(int(c)) for c in self.counts[klass]),
                str(self.patterns[klass]),
            ])
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
            for c in range(len(headers))
        ]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def feature_frequency(explanations) -> FrequencyTable:
    """Count, per predicted class, how many explanations keep each feature."""
    explanations = list(explanations)
    if not explanations:
        return FrequencyTable({}, {}, 0)
    n = len(explanations[0].instance)
    counts: dict[int, np.ndarray] = {}
    patterns: dict[int, int] = {}
    for expl in explanations:
        if len(expl.instance) != n:
            raise ValueError("explanations span different feature spaces")
        row = counts.setdefault(expl.klass, np.zeros(n, dtype=int))
        for i, _ in expl.kept:
            row[i] += 1
        patterns[expl.klass] = patterns.get(expl.klass, 0) + 1
    return FrequencyTable(counts, patterns, n)
