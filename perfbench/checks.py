"""Checks of svcreject's outputs, computed apart from the program.

Nothing here imports svcreject.  The inputs are the CSV (parsed with
numpy), the model files and the JSONL the CLI wrote.  Each check raises
CheckFailure on the first wrong output.

Decision values are sums of rounded products.  The checks take them with
``math.fsum``, which rounds the exact sum once; the program sums in its own
order, which may differ from that by at most gamma_{n+2} * sum|terms|
(Higham, Accuracy and Stability of Numerical Algorithms, section 4.2).  A
value that lands within that bound of a threshold cannot be decided apart
from the program's arithmetic: it is recorded as a knife edge, not passed
and not failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
# the primal objective of the trained model may exceed that of the reference
# direction at its best scale and intercept by this relative amount
OBJECTIVE_RTOL = 1e-4
RISK_ATOL = 1e-12


class CheckFailure(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True, eq=False)
class Table:
    raw: np.ndarray       # feature cells, in file column order
    labels: np.ndarray    # +1 / -1
    names: list[str]


@dataclass
class ExplainReport:
    records: int = 0
    kept_total: int = 0
    class_counts: dict = field(default_factory=lambda: {-1: 0, 0: 0, 1: 0})
    stable_bytes: int = 0   # JSONL bytes without the time_seconds values
    knife_edges: list = field(default_factory=list)

    @property
    def size_mean(self) -> float:
        return self.kept_total / self.records


def read_table(path, label_column: str, positive_label: str) -> Table:
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().rstrip("\n").split(",")]
    label_idx = header.index(label_column)
    cols = [k for k in range(len(header)) if k != label_idx]
    raw = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, dtype=float, ndmin=2)
    text = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[label_idx], dtype=str, ndmin=1)
    labels = np.where(np.char.strip(text) == positive_label, 1.0, -1.0)
    return Table(raw, labels, [header[k] for k in cols])


def read_model(path) -> dict:
    return json.loads(Path(path).read_text())


def model_columns(table: Table, model: dict) -> list[int]:
    return [table.names.index(f["name"]) for f in model["features"]]


def scaled_rows(table: Table, model: dict) -> np.ndarray:
    raw = table.raw[:, model_columns(table, model)]
    mins = np.array([s["min"] for s in model["scaling"]])
    maxs = np.array([s["max"] for s in model["scaling"]])
    return (raw - mins) / (maxs - mins)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- train -----------------------------------------------------------------

def primal_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    hinge = np.maximum(0.0, 1.0 - y * (X @ w + b))
    return float(0.5 * (w @ w) + C * hinge.sum())


def _best_intercept_hinge(u: np.ndarray, y: np.ndarray, C: float) -> float:
    """min over b of C * sum max(0, 1 - y (u + b)), exactly.

    The sum is convex and piecewise linear in b; its minimum sits at the
    smallest breakpoint whose right slope is non-negative.
    """
    pos = np.sort(1.0 - u[y > 0])    # a positive row is active while b < its breakpoint
    neg = np.sort(-1.0 - u[y < 0])   # a negative row is active once b > its breakpoint
    cand = np.concatenate([pos, neg])
    slope = np.searchsorted(neg, cand, side="right") - (pos.size - np.searchsorted(pos, cand, side="right"))
    ok = cand[slope >= 0]
    b = ok.min() if ok.size else cand.max()
    return float(C * np.maximum(0.0, 1.0 - y * (u + b)).sum())


def reference_objective(direction: np.ndarray, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Primal objective of ``direction`` at its best scale and intercept.

    min over (s, b) is jointly convex, so min over b is convex in s; a golden
    section search over s in [0, s_hi] finds it, s_hi being where the
    regularizer alone exceeds the s = 0 objective.
    """
    u = X @ direction
    vv = float(direction @ direction)

    def h(s: float) -> float:
        return 0.5 * s * s * vv + _best_intercept_hinge(s * u, y, C)

    best = h(0.0)
    lo, hi = 0.0, math.sqrt(2.0 * best / vv)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, c = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fc = h(a), h(c)
    for _ in range(80):
        if fa <= fc:
            hi, c, fc = c, a, fa
            a = hi - ratio * (hi - lo)
            fa = h(a)
        else:
            lo, a, fa = a, c, fc
            c = lo + ratio * (hi - lo)
            fc = h(c)
    return min(best, fa, fc)


def check_train(stdout: str, table: Table, model: dict, C: float,
                direction: np.ndarray, noise_free_labels: np.ndarray,
                accuracy_slack: float) -> dict:
    """Converged, no worse than the reference direction, accurate enough held out.

    The noise-free rule's accuracy over all rows (the share of labels the
    generator did not flip), less ``accuracy_slack`` for fitting from a
    finite sample, is the accuracy expected held out; the floor lies four
    binomial standard errors of the held-out count below it.
    """
    _require("converged: True" in stdout, "train: stdout does not report converged: True")
    X = scaled_rows(table, model)
    w = np.array(model["weights"], dtype=float)
    b = float(model["bias"])
    train = np.array(model["split"]["train_indices"], dtype=int)
    test = np.array(model["split"]["test_indices"], dtype=int)
    y = table.labels

    objective = primal_objective(w, b, X[train], y[train], C)
    reference = reference_objective(direction, X[train], y[train], C)
    _require(objective <= reference * (1.0 + OBJECTIVE_RTOL),
             f"train: primal objective {objective:.9g} exceeds the reference "
             f"direction's {reference:.9g}")

    pred = np.where(X[test] @ w + b > 0.0, 1.0, -1.0)
    accuracy = float(np.mean(pred == y[test]))
    expected = float(np.mean(noise_free_labels == y)) - accuracy_slack
    floor = expected - 4.0 * math.sqrt(expected * (1.0 - expected) / test.size)
    _require(accuracy >= floor,
             f"train: held-out accuracy {accuracy:.4f} below the floor {floor:.4f}")
    return {"objective": objective, "reference_objective": reference,
            "accuracy": accuracy, "accuracy_floor": floor}


# --- calibrate -------------------------------------------------------------

def check_calibrate(table: Table, model: dict, wr: float, steps: int) -> dict:
    """The band, grid index and risk equal an exhaustive scan of the grid.

    Decision values are recomputed from the model file over the calibration
    (training) rows; ties go to the narrowest band, the smallest index.
    """
    X = scaled_rows(table, model)
    w = np.array(model["weights"], dtype=float)
    cal = np.array(model["split"]["train_indices"], dtype=int)
    d = X[cal] @ w + float(model["bias"])
    y = table.labels[cal]
    upper, lower = float(d.max()), float(d.min())
    _require(upper > 0.0 > lower, "calibrate: decision values do not straddle zero")

    frac = 1.0 / steps
    best = None
    for i in range(1, steps + 1):
        t_plus, t_minus = i * frac * upper, i * frac * lower
        rejected = (d >= t_minus) & (d <= t_plus)
        accepted = ~rejected
        n_acc = int(accepted.sum())
        errors = int(np.sum(np.where(d[accepted] > t_plus, 1.0, -1.0) != y[accepted]))
        risk = (errors / n_acc if n_acc else 0.0) + wr * (int(rejected.sum()) / d.size)
        if best is None or risk < best[0]:
            best = (risk, i, t_plus, t_minus)
    risk, index, t_plus, t_minus = best

    report = model.get("risk_report") or {}
    _require(report.get("grid_index") == index,
             f"calibrate: grid index {report.get('grid_index')} != scanned {index}")
    _require(model.get("t_plus") == t_plus and model.get("t_minus") == t_minus,
             f"calibrate: band ({model.get('t_minus')}, {model.get('t_plus')}) != "
             f"scanned ({t_minus}, {t_plus})")
    _require(abs(float(report.get("risk", math.inf)) - risk) <= RISK_ATOL,
             f"calibrate: risk {report.get('risk')} != scanned {risk}")
    return {"grid_index": index, "risk": risk}


# --- explain ---------------------------------------------------------------

class _Decider:
    """Decision values by fsum, with the program's rounding band around them."""

    def __init__(self, model: dict):
        self.w = np.array(model["weights"], dtype=float)
        self.b = float(model["bias"])
        self.lower = np.array([f["lower"] for f in model["features"]], dtype=float)
        self.upper = np.array([f["upper"] for f in model["features"]], dtype=float)
        self.t_minus = float(model["t_minus"])
        self.t_plus = float(model["t_plus"])
        n = self.w.size
        gamma = (n + 2) * UNIT_ROUNDOFF / (1.0 - (n + 2) * UNIT_ROUNDOFF)
        # every term w_i * v with v in the box is bounded by this sum; the
        # bound is doubled because np.dot may fuse multiply-adds, so the
        # program's products need not be the rounded products summed here
        largest = np.abs(self.w) * np.maximum(np.abs(self.lower), np.abs(self.upper))
        self.slack = 2.0 * gamma * (abs(self.b) + math.fsum(largest.tolist()))
        lo, hi = self.w * self.lower, self.w * self.upper
        self.free_min = np.minimum(lo, hi)
        self.free_max = np.maximum(lo, hi)

    def above(self, value: float, threshold: float):
        """value > threshold, or None when the two are within rounding."""
        if abs(value - threshold) <= self.slack + math.ulp(threshold):
            return None
        return value > threshold

    def klass(self, point: np.ndarray):
        d = math.fsum((self.w * point).tolist() + [self.b])
        up, down = self.above(d, self.t_plus), self.above(self.t_minus, d)
        if up is None or down is None:
            return None
        return 1 if up else (-1 if down else 0)


def _entailed(dec: _Decider, klass: int, dmin: float, dmax: float):
    """Does the box [dmin, dmax] of decision values force ``klass``?"""
    if klass == 1:
        return dec.above(dmin, dec.t_plus)
    if klass == -1:
        return dec.above(dec.t_minus, dmax)
    over_top = dec.above(dmax, dec.t_plus)
    under_bottom = dec.above(dec.t_minus, dmin)
    if over_top is True or under_bottom is True:
        return False
    if over_top is None or under_bottom is None:
        return None
    return True


def check_explain(jsonl: Path, table: Table, model: dict) -> ExplainReport:
    """Every held-out row explained, and every record sufficient, minimal and
    certified by witnesses that lie in the box and change the class."""
    dec = _Decider(model)
    X = scaled_rows(table, model)
    raw = table.raw[:, model_columns(table, model)]
    names = [f["name"] for f in model["features"]]
    position = {name: i for i, name in enumerate(names)}
    n = len(names)
    scope = [int(i) for i in model["split"]["test_indices"]]

    summary = json.loads(Path(str(jsonl) + ".summary.json").read_text())
    _require(summary["skipped_rows"] == [], f"explain: rows skipped: {summary['skipped_rows'][:10]}")

    report = ExplainReport()
    seen = []
    with open(jsonl, "rb") as fh:
        for line in fh:
            rec = json.loads(line)
            report.stable_bytes += len(line) - len(repr(rec["time_seconds"]).encode())
            row = int(rec["index"])
            seen.append(row)
            _check_record(dec, rec, X[row], raw[row], position, n, report)
    _require(seen == scope, f"explain: explained rows differ from the held-out rows "
                            f"({len(seen)} written, {len(scope)} held out)")
    _require(summary["patterns"] == len(seen), "explain: summary pattern count differs")
    return report


def _check_record(dec: _Decider, rec: dict, x: np.ndarray, raw: np.ndarray,
                  position: dict, n: int, report: ExplainReport) -> None:
    row = rec["index"]
    klass = rec["class"]
    _require(klass in (-1, 0, 1), f"explain: row {row}: class {klass!r}")

    def knife(what: str) -> None:
        report.knife_edges.append((row, what))

    actual = dec.klass(x)
    if actual is None:
        knife("class")
    else:
        _require(actual == klass, f"explain: row {row}: class {klass} but d(x) gives {actual}")

    kept = [position[k["feature"]] for k in rec["kept"]]
    removed = [position[name] for name in rec["removed"]]
    _require(sorted(kept + removed) == list(range(n)),
             f"explain: row {row}: kept and removed do not partition the features")
    for entry, i in zip(rec["kept"], kept):
        _require(entry["value"] == x[i] and entry["raw_value"] == raw[i],
                 f"explain: row {row}: kept value of {entry['feature']} differs from the CSV")

    mask = np.zeros(n, dtype=bool)
    mask[kept] = True
    wx = dec.w * x
    min_terms = np.where(mask, wx, dec.free_min).tolist() + [dec.b]
    max_terms = np.where(mask, wx, dec.free_max).tolist() + [dec.b]
    sufficient = _entailed(dec, klass, math.fsum(min_terms), math.fsum(max_terms))
    if sufficient is None:
        knife("sufficiency")
    else:
        _require(sufficient, f"explain: row {row}: kept features do not entail class {klass}")

    for i in kept:
        # fsum is exact over its inputs, so cancelling a term is exact too
        dmin = math.fsum(min_terms + [-wx[i], dec.free_min[i]])
        dmax = math.fsum(max_terms + [-wx[i], dec.free_max[i]])
        still = _entailed(dec, klass, dmin, dmax)
        if still is None:
            knife(f"minimality of feature {i}")
        else:
            _require(not still, f"explain: row {row}: kept feature {i} is droppable")

    witnesses = {position[wit["feature"]]: wit for wit in rec["witnesses"]}
    _require(len(witnesses) == len(rec["witnesses"]) and sorted(witnesses) == sorted(kept),
             f"explain: row {row}: witnesses do not match the kept features one to one")
    for i, wit in witnesses.items():
        point = np.array(wit["point"], dtype=float)
        _require(point.shape == (n,), f"explain: row {row}: witness {i} has {point.size} values")
        _require(bool(np.all((point >= dec.lower) & (point <= dec.upper))),
                 f"explain: row {row}: witness {i} lies outside the box")
        others = mask.copy()
        others[i] = False
        _require(bool(np.all(point[others] == x[others])),
                 f"explain: row {row}: witness {i} moves a kept feature other than its own")
        got = dec.klass(point)
        if got is None:
            knife(f"witness {i}")
            continue
        _require(got != klass, f"explain: row {row}: witness {i} keeps class {klass}")
        _require(wit["class"] == got, f"explain: row {row}: witness {i} is labelled "
                                      f"{wit['class']} but d gives {got}")

    report.records += 1
    report.kept_total += len(kept)
    report.class_counts[klass] += 1
