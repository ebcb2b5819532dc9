"""Acceptance suite: one test per contract criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import svcreject as sr
from svcreject.dataset import stratified_split_indices

import oracles
from conftest import (
    BAND_T_MINUS,
    BAND_T_PLUS,
    BAND_W,
    BAND_B,
    BAND_X,
    DEMO_X,
    certificates,
    random_reject_model,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number}: {title}")
        raise
    print(f"\nPASS criterion {number}: {title}")


def test_criterion_1_two_feature_worked_example(demo_reject, demo_space):
    with criterion(1, "two-feature model: prediction +1, explanation exactly {f1}, "
                      "flip witness present, under 1 ms"):
        assert oracles.classify_one(demo_reject, DEMO_X) == 1
        batch = sr.explain_batch(demo_reject, demo_space, DEMO_X[None])
        assert batch.classes.tolist() == [1]
        assert np.flatnonzero(~batch.removed[0]).tolist() == [0]
        assert np.flatnonzero(batch.removed[0]).tolist() == [1]
        (witness,) = certificates(batch, 0).values()
        assert oracles.classify_one(demo_reject, witness) == -1
        assert witness[0] == 1.0
        assert batch.seconds < 1e-3


def test_criterion_2_six_feature_reject_band_case(band_reject, band_space):
    with criterion(2, "six-feature banded model: instance rejected, removed set "
                      "exactly {f3}, f4 kept"):
        assert oracles.classify_one(band_reject, BAND_X) == 0
        batch = sr.explain_batch(band_reject, band_space, BAND_X[None])
        assert batch.classes.tolist() == [0]
        assert np.flatnonzero(batch.removed[0]).tolist() == [2]
        assert np.flatnonzero(~batch.removed[0]).tolist() == [0, 1, 3, 4, 5]
        assert not batch.removed[0, 3]


def test_criterion_3_iris_pipeline(iris_csv):
    with criterion(3, "iris setosa-versus-all: 100% test accuracy without reject, "
                      "zero rejections at w_r=0.24"):
        raw, y, names = sr.load_csv(iris_csv, "species", "setosa")
        space, scaling, full = sr.scale_dataset(raw, y, names)
        train_idx, test_idx = stratified_split_indices(full.y, 0.7, seed=0)
        train = sr.LabeledDataset(full.X[train_idx], full.y[train_idx])
        model, report = sr.train_soft_margin(train, sr.TrainerConfig(C=1.0))
        assert report.converged

        pred = np.where(sr.decision_values(model, full.X[test_idx]) > 0.0, 1.0, -1.0)
        assert float(np.mean(pred == full.y[test_idx])) == 1.0

        rm, _ = sr.calibrate(model, train, w_r=0.24)
        metrics = sr.evaluate(rm, full)
        assert metrics.rejected == 0
        assert metrics.accuracy_with_reject == 1.0


def test_criterion_4_oracle_equivalence_10k_queries():
    with criterion(4, "the batched pass's elimination queries agree with vertex "
                      "enumeration on 10,000 queries in under 10 s"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        queries = 0
        classes = set()
        while queries < 10_000:
            n = int(rng.integers(1, 13))
            weights = rng.uniform(-10.0, 10.0, n)
            bias = float(rng.uniform(-5.0, 5.0))
            lower = rng.uniform(-2.0, 0.0, n)
            upper = lower + rng.uniform(0.5, 3.0, n)
            space = sr.FeatureSpace([f"f{i}" for i in range(n)], lower, upper)
            t_plus, t_minus = float(rng.uniform(0.0, 5.0)), -float(rng.uniform(0.0, 5.0))
            rm = sr.RejectModel(sr.LinearModel(weights, bias), t_minus, t_plus, 0.24)
            X = rng.uniform(lower, upper, (4, n))
            order = rng.permutation(n).tolist()
            batch = sr.explain_batch(rm, space, X, order)
            # float corner enumeration settles every query only away from knife edges
            assert int(batch.knife_edges.sum()) == 0
            for k, x in enumerate(X):
                d = float(x @ weights + bias)
                klass = 1 if d > t_plus else -1 if d < t_minus else 0
                assert batch.classes[k] == klass
                classes.add(klass)
                # replay the elimination, each query decided by the vertex oracle
                fixed = {i: float(v) for i, v in enumerate(x)}
                asked = 0
                for i in order:
                    fixed.pop(i)
                    for atom in oracles.negate(oracles.prediction_formula(rm, klass)):
                        asked += 1
                        if oracles.satisfiable_vertex_oracle(
                                atom, oracles.PartialAssignment(dict(fixed)), space):
                            assert not batch.removed[k, i]
                            assert batch.at_max[k, i] == (atom.relation in (">", ">="))
                            fixed[i] = float(x[i])
                            break
                    else:
                        assert batch.removed[k, i]
                assert batch.queries[k] == asked
                queries += asked
        assert classes == {-1, 0, 1}
        assert time.perf_counter() - start < 10.0


def _soundness_corpus(iris_csv):
    """(reject model, space, instances) triples: three synthetic + the iris CSV."""
    corpus = []

    # separable two-feature problem, trained and calibrated
    rng = np.random.default_rng(31)
    X = np.vstack([rng.uniform(0.6, 1.0, (30, 2)), rng.uniform(0.0, 0.4, (30, 2))])
    y = np.array([1.0] * 30 + [-1.0] * 30)
    ds = sr.LabeledDataset(X, y)
    model, _ = sr.train_soft_margin(ds, sr.TrainerConfig(C=100.0))
    rm, _ = sr.calibrate(model, ds, w_r=0.24)
    corpus.append((rm, sr.FeatureSpace.unit(["a", "b"]), X))

    # heavily overlapping single feature, so all three classes occur
    rng = np.random.default_rng(32)
    X = np.clip(np.vstack([
        rng.normal(0.62, 0.2, (40, 1)), rng.normal(0.38, 0.2, (40, 1)),
    ]), 0.0, 1.0)
    y = np.array([1.0] * 40 + [-1.0] * 40)
    ds = sr.LabeledDataset(X, y)
    model, _ = sr.train_soft_margin(ds)
    rm, _ = sr.calibrate(model, ds, w_r=0.24)
    corpus.append((rm, sr.FeatureSpace.unit(["x"]), X))

    # wide random model with a fixed band
    rng = np.random.default_rng(33)
    rm = random_reject_model(rng, 9)
    corpus.append((rm, sr.FeatureSpace.unit([f"f{i}" for i in range(9)]),
                   rng.uniform(0.0, 1.0, (50, 9))))

    # the iris CSV through the full pipeline
    raw, y, names = sr.load_csv(iris_csv, "species", "setosa")
    space, scaling, full = sr.scale_dataset(raw, y, names)
    train_idx, _ = stratified_split_indices(full.y, 0.7, seed=0)
    train = sr.LabeledDataset(full.X[train_idx], full.y[train_idx])
    model, _ = sr.train_soft_margin(train)
    rm, _ = sr.calibrate(model, train, w_r=0.24)
    corpus.append((rm, space, full.X))
    return corpus


def test_criterion_5_explanation_soundness_suite(iris_csv):
    with criterion(5, "every explanation on the corpus verifies, and 1,000 random "
                      "completions never flip the class"):
        completions = 1_000
        total = 0
        for rm, space, instances in _soundness_corpus(iris_csv):
            rng = np.random.default_rng(99)
            n = len(space)
            w, b = rm.model.weights, rm.model.bias
            for x in instances:
                batch = sr.explain_batch(rm, space, x[None])
                _, _, violations = sr.verify_batch(rm, space, batch)
                assert violations == {}

                samples = rng.uniform(space.lower, space.upper, (completions, n))
                kept = ~batch.removed[0]
                samples[:, kept] = x[kept]
                d = samples @ w + b
                classes = np.where(d > rm.t_plus, 1, np.where(d < rm.t_minus, -1, 0))
                assert np.all(classes == batch.classes[0])
                total += 1
        assert total >= 300


def test_criterion_6_calibration_optimality_100_datasets():
    with criterion(6, "calibrated risk equals the exhaustive grid minimum on 100 "
                      "random datasets, and the risk identity is exact"):
        model = sr.LinearModel(np.array([1.0]), 0.0)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(12, 80))
            values = rng.uniform(-2.5, 2.5, m)
            values[0] = abs(values[0]) + 0.05
            values[1] = -abs(values[1]) - 0.05
            labels = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            labels[0], labels[1] = 1.0, -1.0
            w_r = float(rng.uniform(0.05, 1.0))
            ds = sr.LabeledDataset(values.reshape(-1, 1), labels)
            rm, report = sr.calibrate(model, ds, w_r=w_r)
            best_risk, best_idx, t_plus, t_minus = oracles.grid_best_risk(
                labels, model, ds.X, w_r
            )
            assert report.risk == best_risk
            assert report.grid_index == best_idx
            assert (rm.t_plus, rm.t_minus) == (t_plus, t_minus)
            assert report.risk == report.error_ratio + w_r * report.rejection_ratio


def test_criterion_7_sixty_feature_performance():
    with criterion(7, "60-feature model: mean explanation time under 10 ms across "
                      "200 instances, within the 2n query budget"):
        rng = np.random.default_rng(7)
        n = 60
        rm = random_reject_model(rng, n)
        space = sr.FeatureSpace.unit([f"f{i}" for i in range(n)])
        times = []
        for _ in range(200):
            x = rng.uniform(0.0, 1.0, n)
            batch = sr.explain_batch(rm, space, x[None])   # one instance per pass
            assert batch.queries[0] <= 2 * n
            times.append(batch.seconds)
        mean = sum(times) / len(times)
        assert mean < 0.010, f"mean explanation time {mean * 1e3:.3f} ms"
