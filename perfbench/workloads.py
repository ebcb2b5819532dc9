"""Workload definitions and the seeded synthetic CSV generator.

Each workload is a population of linearly separable-plus-noise data.  A run
draws ``datasets`` independent CSVs from it (sub-seeds of ``--seed``), and
every one goes through the same train -> calibrate -> explain session.  The
generator also returns what only it knows (the true direction, the raw
column transform and the noise-free labels), which the output checks use as
their reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LABEL_COLUMN = "label"
POSITIVE_LABEL = "pos"


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    features: int
    spectrum: str          # "geometric" or "power": magnitude profile of the true weights
    noise: float           # std of the Gaussian added to the unit-variance true score
    C: float
    fraction: float        # --fraction: share of rows trained on; the rest is explained
    wr: float              # the --wr explained; one of run.REJECTION_COSTS
    order: str
    max_passes: int        # --max-passes: the trainer's budget of single pair updates
    datasets: int          # independent CSVs per round
    accuracy_slack: float  # expected held-out accuracy loss against the noise-free rule


WORKLOADS = {
    # Rows dominate: O(m*n) trainer updates, whole-file CSV reads, thousands
    # of short explanations, JSONL writes.  C=0.003 converges in ~6k pair
    # updates with a narrow spread across seeds; at C=1 the same data needs
    # ~150k (over 100 s).
    "tall": Workload(
        name="tall", rows=20_000, features=30, spectrum="geometric", noise=0.35,
        C=0.003, fraction=0.85, wr=0.24, order="ascending", max_passes=60_000,
        datasets=2, accuracy_slack=0.03,
    ),
    # Features dominate: O(n^2) feasibility scans and O(|kept|*n)
    # verification per row on a few tens of rows; a low --wr makes the
    # two-atom reject class a large share.
    "wide": Workload(
        name="wide", rows=2_000, features=500, spectrum="power", noise=0.2,
        C=0.01, fraction=0.99, wr=0.1, order="descending-weight", max_passes=60_000,
        datasets=2, accuracy_slack=0.1,
    ),
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """One generated CSV plus the generator's own knowledge of it."""

    path: Path
    seed: int                 # the sub-seed, also passed to train --seed for the split
    weights: np.ndarray       # true direction over the latent unit box z
    scales: np.ndarray        # raw = offset + scale * z, before rounding to 6 digits
    clean_labels: np.ndarray  # +1/-1 of the noise-free rule sign(w . (z - 1/2))


def _magnitudes(spectrum: str, n: int) -> np.ndarray:
    if spectrum == "geometric":
        return np.geomspace(1.0, 0.02, n)
    if spectrum == "power":
        return 1.0 / (1.0 + np.arange(n)) ** 0.7
    raise ValueError(f"unknown spectrum {spectrum!r}")


def generate(workload: Workload, seed: int, index: int, directory: Path) -> Dataset:
    """Write dataset ``index`` of ``workload`` for run seed ``seed``.

    The same (workload, seed, index) always gives a byte-identical file.
    """
    n, m = workload.features, workload.rows
    # which feature carries which magnitude is part of the workload, not of
    # the seed: with --order ascending it sets how long explanations are
    placement = np.random.default_rng(n).permutation(n)
    sub_seed = seed * 1000 + index
    rng = np.random.default_rng([sub_seed, n, m])
    weights = _magnitudes(workload.spectrum, n)[placement] * rng.choice([-1.0, 1.0], n)
    offsets = rng.uniform(-100.0, 100.0, n)
    scales = 10.0 ** rng.uniform(-1.0, 3.0, n)

    z = rng.random((m, n))
    # std of w . (z - 1/2) for z uniform on the unit box
    score = (z - 0.5) @ weights / (np.linalg.norm(weights) / np.sqrt(12.0))
    clean = np.where(score > 0.0, 1.0, -1.0)
    labels = np.where(score + workload.noise * rng.standard_normal(m) > 0.0, 1.0, -1.0)
    raw = offsets + scales * z

    path = directory / f"{workload.name}-{index}.csv"
    names = [f"f{i}" for i in range(n)]
    text = {1.0: POSITIVE_LABEL, -1.0: "neg"}
    with path.open("w") as fh:
        fh.write(",".join(names + [LABEL_COLUMN]) + "\n")
        for row, label in zip(raw.tolist(), labels.tolist()):
            fh.write(",".join([f"{v:.6g}" for v in row]) + "," + text[label] + "\n")
    return Dataset(path, sub_seed, weights, scales, clean)
