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
Classifiers with Polynomial Time and Delay", NeurIPS 2020).  ``verify_batch``
re-checks a whole pass from scratch, also O(n) per row plus the witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetError, FeatureSpace
from .feasibility import BoxExtrema, LinearAtom, decide, exact_value
from .rejector import RejectModel, classify, predictions_with_reject

# coordinates of witness points that verify_batch builds and classifies at
# once; a row's witnesses hold at most n * n, so a chunk is at least one row
VERIFY_CHUNK_CELLS = 1 << 18


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


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """The violations found in one explanation, and the class of each of its
    certificate points (ascending feature order)."""

    ok: bool
    violations: tuple[str, ...] = ()
    witness_classes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

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

    def layout(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row k's kept features (ascending), the free mask of each one's
        witness, and whether that witness sits on the maximum side."""
        _, kept, free, at_max = self.witnesses(k, k + 1)
        return kept, free, at_max

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


def _entailment(rm: RejectModel, box: BoxExtrema, values, classes, kept):
    """Per row, whether its kept values entail its class; per kept feature
    (``np.nonzero(kept)`` order), whether they still do with it freed.

    The extrema are computed from scratch: the kept products plus the free
    features' extreme terms, moved by one feature's swing for the second
    answer.  A formula atom ``> t``/``>= t`` must hold at the minimum, a
    ``< t``/``<= t`` atom at the maximum.
    """
    products = values * box.weights
    terms = {False: np.where(kept, products, box.min_term),
             True: np.where(kept, products, box.max_term)}
    base = {at_max: t.sum(axis=1) + box.bias for at_max, t in terms.items()}
    rows, features = np.nonzero(kept)
    sufficient = np.zeros(len(values), dtype=bool)
    droppable = np.zeros(rows.size, dtype=bool)
    for klass in (-1, 0, 1):
        own = np.flatnonzero(classes == klass)
        if not own.size:
            continue
        freed = np.flatnonzero(classes[rows] == klass)
        # element e < own.size is row own[e]; the rest free one kept feature each
        row = np.concatenate((own, rows[freed]))
        feature = np.concatenate((np.full(own.size, -1), features[freed]))
        holds = np.ones(row.size, dtype=bool)
        for atom in prediction_formula(rm, klass):
            at_max = atom.relation in ("<", "<=")
            extreme = box.max_term if at_max else box.min_term
            swing = extreme[features[freed]] - products[rows[freed], features[freed]]
            estimate = np.concatenate((base[at_max][own], base[at_max][rows[freed]] + swing))

            def exact(e, side=terms[at_max], extreme=extreme, row=row, feature=feature):
                point = side[row[e]].copy()
                if feature[e] >= 0:
                    point[feature[e]] = extreme[feature[e]]
                return exact_value(point.tolist(), box.bias)

            ok, _ = decide(estimate, atom.relation, atom.threshold, box.bound, exact)
            holds &= ok
        sufficient[own] = holds[:own.size]
        droppable[freed] = holds[own.size:]
    return sufficient, droppable


def _verify(rm: RejectModel, space: FeatureSpace, box: BoxExtrema, instances, values,
            classes, kept, rows, features, points) -> list[VerificationReport]:
    """The one verification core, for a chunk of rows.

    ``values`` holds each row's kept values in its ``kept`` positions, and
    ``points[t]`` is the certificate of feature ``features[t]`` of row
    ``rows[t]``, in row order.  Per row it checks that (a) the kept values
    are the instance's, (b) they entail the class, (c) no kept feature can be
    dropped alone, (d) every kept feature has a certificate and no other
    feature has one, and (e) every certificate lies in the box, moves
    no other kept feature and is classified differently.  Each certificate
    is classified once, and its class is reported.
    """
    names = space.names
    violations: list[list[str]] = [[] for _ in range(len(values))]
    for k, i in zip(*np.nonzero(kept & (values != instances))):
        violations[k].append(f"kept value of feature {names[i]!r} differs from the instance")
    sufficient, droppable = _entailment(rm, box, values, classes, kept)
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
    moves = np.any(others & (points != values[rows]), axis=1)
    witness_classes = predictions_with_reject(rm, points)
    for message, bad in (("lies outside the box", ~space.rows_inside(points)),
                         ("moves another kept feature", moves),
                         ("does not flip the class", witness_classes == classes[rows])):
        for t in np.flatnonzero(bad).tolist():
            violations[rows[t]].append(f"certificate for feature {names[features[t]]!r} {message}")
    per_row = np.split(witness_classes, np.searchsorted(rows, np.arange(1, len(values))))
    return [VerificationReport(not v, tuple(v), c) for v, c in zip(violations, per_row)]


def verify_batch(rm: RejectModel, space: FeatureSpace, batch: ExplanationBatch) -> list[VerificationReport]:
    """Re-check every row of an elimination pass from scratch.

    Sufficiency and minimality are decided from the rows, their classes and
    their removed masks alone, with one box and one formula per class; the
    witness points are the ones ``batch.witnesses`` lays out, built and
    classified in chunks of at most ``VERIFY_CHUNK_CELLS`` coordinates.
    Returns one report per row.
    """
    n = len(space)
    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    step = max(1, VERIFY_CHUNK_CELLS // (n * n))
    reports: list[VerificationReport] = []
    for start in range(0, len(batch), step):
        stop = min(start + step, len(batch))
        X = batch.instances[start:stop]
        rows, features, free, at_max = batch.witnesses(start, stop)
        points = witness_points(free, at_max, X[rows], box.max_corner, box.min_corner)
        reports += _verify(rm, space, box, X, X, batch.classes[start:stop],
                           ~batch.removed[start:stop], rows, features, points)
    return reports


def verify_explanation(rm: RejectModel, space: FeatureSpace, expl: Explanation) -> VerificationReport:
    """One explanation, with the certificates it carries, through
    ``verify_batch``'s checks, plus that kept and removed partition the
    features.

    Raises ValueError for a class other than -1, 0 or +1, a kept index
    outside the features, a kept value outside its domain or a certificate
    index outside the features.
    """
    if expl.klass not in (-1, 0, 1):
        raise ValueError("class must be -1, 0 or +1")
    n = len(space)
    lower, upper = space.lower.tolist(), space.upper.tolist()
    instance = np.asarray(expl.instance, dtype=float)
    if instance.shape != (n,):
        raise ValueError(f"instance has shape {instance.shape}, expected ({n},)")
    kept = np.zeros(n, dtype=bool)
    values = instance.copy()
    for i, v in expl.kept:
        if not 0 <= i < n:
            raise ValueError(f"fixed index {i} out of range for {n} features")
        if not lower[i] <= v <= upper[i]:
            raise ValueError(
                f"fixed value {v} for feature {space.names[i]!r} "
                f"outside its domain [{lower[i]}, {upper[i]}]"
            )
        kept[i], values[i] = True, v
    items = sorted(expl.certificates.items())
    features = np.array([i for i, _ in items], dtype=int)
    if np.any((features < 0) | (features >= n)):
        raise ValueError(f"certificate index out of range for {n} features")
    points = np.array([p for _, p in items], dtype=float).reshape(len(items), n)

    kept_idx = set(expl.kept_indices)
    violations = []
    if kept_idx | set(expl.removed) != set(range(n)) or kept_idx & set(expl.removed):
        violations.append("kept and removed do not partition the features")
    box = BoxExtrema.of(rm.model.weights, rm.model.bias, space)
    (report,) = _verify(rm, space, box, instance[None], values[None], np.array([expl.klass]),
                        kept[None], np.zeros(features.size, dtype=int), features, points)
    violations += report.violations
    return VerificationReport(not violations, tuple(violations), report.witness_classes)


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


def feature_frequency(classes, removed) -> FrequencyTable:
    """Count, per predicted class, how many rows keep each feature, from a
    batch's ``classes`` and ``removed`` arrays."""
    classes = np.asarray(classes, dtype=int)
    kept = ~np.asarray(removed, dtype=bool)
    counts: dict[int, np.ndarray] = {}
    patterns: dict[int, int] = {}
    for klass in (-1, 0, 1):
        rows = classes == klass
        if rows.any():
            counts[klass] = kept[rows].sum(axis=0)
            patterns[klass] = int(rows.sum())
    return FrequencyTable(counts, patterns, kept.shape[1])
