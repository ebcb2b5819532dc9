"""CSV ingestion, label binarization, min-max scaling and stratified splitting.

Raw feature columns are rescaled to [0, 1]; the resulting unit box is the
domain every downstream component (training, calibration, explanation)
works in.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed input data (bad CSV cell, degenerate column, single class...)."""


@dataclass(frozen=True, eq=False)
class FeatureSpace:
    """Named features with per-feature closed box domains [lower_i, upper_i]."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        n = len(self.names)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise DatasetError("feature names and bounds have mismatched lengths")
        if len(set(self.names)) != n:
            raise DatasetError("feature names must be unique")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise DatasetError("feature bounds must be finite")
        bad = np.nonzero(~(self.lower < self.upper))[0]
        if bad.size:
            raise DatasetError(
                f"degenerate domain for feature {self.names[bad[0]]!r}: "
                f"lower {self.lower[bad[0]]} must be < upper {self.upper[bad[0]]}"
            )

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def unit(cls, names) -> "FeatureSpace":
        """The [0, 1]^n box, the domain of every scaled dataset."""
        n = len(names)
        return cls(tuple(names), np.zeros(n), np.ones(n))

    def rows_inside(self, X: np.ndarray) -> np.ndarray:
        """Per row of X (n columns): does it lie in the box?  The one
        membership test; a nan coordinate lies outside."""
        return np.all((X >= self.lower) & (X <= self.upper), axis=1)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Instances (rows of X) with labels in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise DatasetError(f"instances must form a 2-d array, got shape {X.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.shape[0] != y.shape[0]:
            raise DatasetError("instances and labels have different lengths")
        if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            raise DatasetError("labels must be -1 or +1")

    def __len__(self) -> int:
        return int(self.y.shape[0])


@dataclass(frozen=True, eq=False)
class ScalingParams:
    """Per-column (min, max) observed in raw data; maps raw values onto [0, 1]."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=float))
        object.__setattr__(self, "maxs", np.asarray(self.maxs, dtype=float))
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise DatasetError("scaling mins/maxs must be 1-d and equally long")
        if not np.all(self.maxs > self.mins):
            raise DatasetError("scaling requires max > min for every column")

    def __len__(self) -> int:
        return int(self.mins.shape[0])


def load_csv(path, label_column: str | None = None, positive_label=None,
             features=None) -> tuple[np.ndarray, np.ndarray | None, list[str]]:
    """Read a comma-separated file with a header row.

    Returns (raw feature matrix, labels in {-1,+1}, feature names).  The
    label column is matched by name; rows whose label equals
    ``positive_label`` (string comparison after ``strip``) map to +1,
    everything else to -1.  ``features`` names the feature columns to read
    (default: every column but the label); a column that is read, feature
    or label, may appear only once in the header.  Without ``label_column``
    no labels are read, labels are None and a file without data rows is
    accepted.

    ``_read_rows``, a loop over ``csv.reader`` rows calling ``float`` per
    cell, defines the accepted format and every error message.  The data
    lines are first parsed in one call to numpy's C reader (``_read_fast``);
    any input it does not read exactly as the loop would is read again by
    the loop.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        if features is not None:
            missing = [name for name in features if name not in header]
            if missing:
                raise DatasetError(f"{path}: missing feature columns {missing}")
        labelled = label_column is not None
        if labelled and label_column not in header:
            raise DatasetError(f"{path}: label column {label_column!r} not in header {header}")
        read = set(header) if features is None else {*features, label_column}
        seen = set()
        for name in header:
            if name in seen and name in read:
                raise DatasetError(f"{path}: column {name!r} appears more than once in the header")
            seen.add(name)
        label_idx = header.index(label_column) if labelled else -1
        if features is None:
            cols = [k for k in range(len(header)) if k != label_idx]
        else:
            cols = [header.index(name) for name in features]
        if not cols:
            raise DatasetError(f"{path}: no feature columns to read")
        positive = str(positive_label).strip()

        parsed = _read_fast(fh, len(header), label_idx, cols, positive)
        if parsed is None:
            fh.seek(0)
            next(reader)
            parsed = _read_rows(path, reader, header, label_idx, cols, positive)
    raw, y = parsed

    names = [header[k] for k in cols]
    if not labelled:
        return raw, None, names
    if not y.size:
        raise DatasetError(f"{path}: no data rows")
    if np.all(y == y[0]):
        raise DatasetError(
            f"{path}: only one class present after binarization "
            f"(positive label {positive!r})"
        )
    return raw, y, names


def _read_fast(fh, width: int, label_idx: int, cols, positive: str):
    """(raw, labels) of the data lines left in ``fh``, parsed by ``np.loadtxt``,
    or None where its reading could differ from ``_read_rows``'s.

    loadtxt tokenizes quotes, line ends and empty lines as ``csv.reader``
    does and parses floats through the same ``PyOS_string_to_double``.
    Everything it rejects goes to the row loop: a ragged row, a
    whitespace-only line or blank cell, a cell ``float`` reads and loadtxt
    does not (``1_0``), and an input without data rows, where loadtxt warns.
    A first row wider than the header is a width loadtxt accepts, and a label
    column that is also a feature would be shadowed by its converter.
    """
    if label_idx in cols:
        return None
    # a constant for every column neither feature nor label: loadtxt still
    # checks each row's width
    converters = dict.fromkeys((k for k in range(width) if k not in cols), lambda s: 0.0)
    if label_idx >= 0:
        converters[label_idx] = lambda s: 1.0 if s.strip() == positive else -1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(_plain_lines(fh), delimiter=",", dtype=float, comments=None,
                               quotechar='"', ndmin=2, converters=converters)
    except (ValueError, Warning):
        return None
    if table.shape[1] != width:
        return None
    return table[:, cols], table[:, label_idx].copy() if label_idx >= 0 else None


def _plain_lines(fh):
    """The lines of ``fh``; a ValueError at the first one holding one of the
    information separators U+001C..U+001F, which loadtxt strips around a
    number as whitespace and ``float`` rejects."""
    for line in fh:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("information separator in a data line")
        yield line


def _read_rows(path, reader, header, label_idx: int, cols, positive: str):
    """(raw, labels) of the rows left in ``reader``: the definition of the
    accepted format.  Rows whose cells are all blank are skipped; every other
    row must have one cell per header column and parse under ``float``."""
    rows: list[list[float]] = []
    labels: list[float] = []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DatasetError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        try:
            rows.append([float(row[k]) for k in cols])
        except ValueError:
            raise _cell_error(path, row_no, row, header, cols) from None
        if label_idx >= 0:
            labels.append(1.0 if row[label_idx].strip() == positive else -1.0)
    raw = np.asarray(rows, dtype=float).reshape(-1, len(cols))
    return raw, np.asarray(labels, dtype=float) if label_idx >= 0 else None


def _cell_error(path, row_no: int, row, header, cols) -> DatasetError:
    """The error for a row whose feature cells do not parse, naming the first
    such column."""
    for k in cols:
        try:
            float(row[k])
        except ValueError:
            return DatasetError(
                f"{path}: row {row_no}, column {header[k]!r}: "
                f"cannot parse {row[k].strip()!r} as a number"
            )


def fit_scaling(raw: np.ndarray, names=None) -> ScalingParams:
    """Per-column min/max over the entire table; rejects constant columns."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise DatasetError("raw table must be 2-d")
    if not np.all(np.isfinite(raw)):
        raise DatasetError("raw table contains non-finite values")
    mins = raw.min(axis=0)
    maxs = raw.max(axis=0)
    flat = np.nonzero(maxs <= mins)[0]
    if flat.size:
        col = names[flat[0]] if names is not None else f"#{flat[0]}"
        raise DatasetError(f"column {col} is constant; its domain would be degenerate")
    return ScalingParams(mins, maxs)


def apply_scaling(raw: np.ndarray, params: ScalingParams) -> np.ndarray:
    """Map raw values to (v - min) / (max - min).

    Values from outside the fitted range map outside [0, 1], never clamped;
    whether a row lies in the box is ``FeatureSpace.rows_inside``'s question.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        return raw.reshape(0, len(params))
    if raw.ndim != 2 or raw.shape[1] != len(params):
        raise DatasetError(
            f"raw table has shape {raw.shape}, expected {len(params)} columns"
        )
    return (raw - params.mins) / (params.maxs - params.mins)


def scale_dataset(raw, y, names) -> tuple[FeatureSpace, ScalingParams, LabeledDataset]:
    """Fit scaling to the raw table and assemble the unit-box dataset used
    downstream."""
    params = fit_scaling(raw, names)
    return FeatureSpace.unit(names), params, LabeledDataset(apply_scaling(raw, params), y)


def stratified_split_indices(y: np.ndarray, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class shuffled index split; train gets round(fraction * class size).

    Both sides keep at least one instance of every class, so each class needs
    two or more members.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must lie strictly between 0 and 1")
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in np.unique(y):
        idx = np.nonzero(y == cls)[0]
        if idx.size < 2:
            raise DatasetError(f"class {cls:+g} has fewer than 2 instances")
        k = int(round(train_fraction * idx.size))
        k = min(max(k, 1), idx.size - 1)
        perm = rng.permutation(idx.size)
        train_parts.append(idx[perm[:k]])
        test_parts.append(idx[perm[k:]])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test
