import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from svcreject import dataset, trainer
from svcreject.dataset import LabeledDataset
from svcreject.trainer import (
    LinearModel,
    TrainerConfig,
    TrainingError,
    decision_values,
    train_soft_margin,
)

import oracles
from oracles import decision_value, predict
from conftest import DATA_DIR, DEMO_B, DEMO_W, DEMO_X


def two_point_problem():
    return LabeledDataset(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]))


class TestTraining:
    def test_two_point_problem_recovers_max_margin(self):
        # exact optimum (w=2, b=-1, objective 2) confirmed by grid search
        model, report = train_soft_margin(two_point_problem(), TrainerConfig(C=1000.0))
        assert model.weights[0] == pytest.approx(2.0, abs=1e-3)
        assert model.bias == pytest.approx(-1.0, abs=1e-3)
        assert report.primal_objective == pytest.approx(2.0, abs=1e-3)
        assert report.converged

    def test_separable_data_trains_to_unit_margins(self):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.uniform(0.6, 1.0, (25, 2)), rng.uniform(0.0, 0.4, (25, 2))])
        y = np.array([1.0] * 25 + [-1.0] * 25)
        model, report = train_soft_margin(LabeledDataset(X, y), TrainerConfig(C=1e5))
        margins = y * (X @ model.weights + model.bias)
        assert margins.min() >= 1.0 - 1e-3
        assert np.all(np.sign(X @ model.weights + model.bias) == y)

    def test_single_class_rejected(self):
        ds = LabeledDataset(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(TrainingError, match="both classes"):
            train_soft_margin(ds)

    def test_nonfinite_data_rejected(self):
        ds = LabeledDataset(np.array([[np.nan], [1.0]]), np.array([-1.0, 1.0]))
        with pytest.raises(TrainingError, match="non-finite"):
            train_soft_margin(ds)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (30, 3))
        y = np.where(X[:, 0] + X[:, 1] > 1.0, 1.0, -1.0)
        ds = LabeledDataset(X, y)
        m1, r1 = train_soft_margin(ds, TrainerConfig(C=1.0))
        m2, r2 = train_soft_margin(ds, TrainerConfig(C=1.0))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias
        assert r1 == r2

    def test_report_respects_pass_budget(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (40, 2))
        y = np.where(X[:, 0] > X[:, 1], 1.0, -1.0)
        _, report = train_soft_margin(LabeledDataset(X, y), TrainerConfig(max_passes=7))
        assert report.passes_used <= 7
        # no row is left out before the budget runs out: the report is the unshrunk loop's
        _, ref = oracles.reference_train_soft_margin(LabeledDataset(X, y),
                                                     TrainerConfig(max_passes=7))
        assert report == ref

    def test_feasibility_of_fitted_slacks(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 1, (50, 4))
        y = np.where(X.sum(axis=1) > 2.0, 1.0, -1.0)
        flip = rng.random(50) < 0.1
        y[flip] = -y[flip]
        model, _ = train_soft_margin(LabeledDataset(X, y), TrainerConfig(C=1.0))
        margins = y * (X @ model.weights + model.bias)
        slacks = np.maximum(0.0, 1.0 - margins)
        assert np.all(margins >= 1.0 - slacks - 1e-6)
        assert np.all(slacks >= 0.0)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=8),
           st.integers(min_value=1, max_value=3),
           st.sampled_from((0.5, 1.0, 10.0)))
    @settings(max_examples=60, deadline=None)
    def test_objective_matches_active_set_oracle(self, seed, m, n, C):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (m, n))
        y = np.concatenate([[1.0, -1.0], np.sign(rng.uniform(-1, 1, m - 2))])
        y[y == 0] = 1.0
        ds = LabeledDataset(X, y)
        model, report = train_soft_margin(ds, TrainerConfig(C=C, max_passes=100_000))
        exact = oracles.soft_margin_optimum(X, y, C)
        assert report.primal_objective <= exact + 1e-3
        assert report.primal_objective >= exact - 1e-6

    def test_scaling_inputs_preserves_separable_predictions(self):
        rng = np.random.default_rng(23)
        X = np.vstack([rng.uniform(0.6, 1.0, (15, 2)), rng.uniform(0.0, 0.4, (15, 2))])
        y = np.array([1.0] * 15 + [-1.0] * 15)
        config = TrainerConfig(C=1e5)
        for k in (1.0, 3.5, 0.25):
            model, _ = train_soft_margin(LabeledDataset(k * X, y), config)
            pred = np.where(k * X @ model.weights + model.bias > 0, 1.0, -1.0)
            assert np.array_equal(pred, y)


def iris_training_rows():
    """The training rows of the README's `train` command on iris."""
    raw, y, names = dataset.load_csv(DATA_DIR / "iris.csv", "species", "setosa")
    _, _, full = dataset.scale_dataset(raw, y, names)
    train_idx, _ = dataset.stratified_split_indices(full.y, 0.7, 0)
    return LabeledDataset(full.X[train_idx], full.y[train_idx])


def noisy_linear_problem():
    """2,500 rows, 8 features, labels from a seeded direction plus noise."""
    rng = np.random.default_rng(2024)
    X = rng.uniform(0.0, 1.0, (2500, 8))
    direction = rng.normal(size=8)
    noise = 0.3 * rng.normal(size=2500)
    y = np.where(X @ direction - 0.5 * direction.sum() + noise > 0.0, 1.0, -1.0)
    return LabeledDataset(X, y)


@pytest.fixture
def left_out(monkeypatch):
    """Records how many rows each shrink check leaves out."""
    counts = []
    leaving = trainer._leaving

    def spy(*args):
        leave = leaving(*args)
        counts.append(int(leave.sum()))
        return leave

    monkeypatch.setattr(trainer, "_leaving", spy)
    return counts


class TestShrinking:
    """The shrinking loop against the unshrunk loop it replaced."""

    def assert_bit_identical(self, ds, config):
        model, report = train_soft_margin(ds, config)
        ref_model, ref_report = oracles.reference_train_soft_margin(ds, config)
        assert model.weights.tobytes() == ref_model.weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(ref_model.bias).tobytes()
        assert report == ref_report
        return report

    def test_iris_bit_identical(self):
        report = self.assert_bit_identical(iris_training_rows(), TrainerConfig())
        assert report.converged

    def test_large_problem_shrinks_and_stays_bit_identical(self, left_out):
        report = self.assert_bit_identical(noisy_linear_problem(),
                                           TrainerConfig(C=0.05, max_passes=100_000))
        assert report.converged
        assert max(left_out) > 0

    def test_wide_problem_bit_identical_with_one_blas_thread(self):
        """1,980 x 500, the shape of the benchmark's `wide` workload, with BLAS
        on one thread as the benchmark runs it.  Seed 5 is the first of 0-7
        where leaving out rows without the gap margin changes the updates
        (5,856 instead of 4,260), and one of four where ignoring the BLAS
        block order changes the last bits of the model.  With more BLAS
        threads the product also rounds differently at the edges of each
        thread's share of rows, so the bits can differ there."""
        code = textwrap.dedent("""
            import numpy as np
            import oracles
            from svcreject.dataset import LabeledDataset
            from svcreject.trainer import TrainerConfig, train_soft_margin

            rng = np.random.default_rng(5)
            w = rng.choice([-1.0, 1.0], 500) / (1.0 + np.arange(500)) ** 0.7
            X = rng.random((1980, 500))
            score = (X - 0.5) @ w / (np.linalg.norm(w) / np.sqrt(12.0))
            y = np.where(score + 0.2 * rng.standard_normal(1980) > 0.0, 1.0, -1.0)
            ds, config = LabeledDataset(X, y), TrainerConfig(C=0.01, max_passes=60_000)
            model, report = train_soft_margin(ds, config)
            ref_model, ref_report = oracles.reference_train_soft_margin(ds, config)
            print(report.passes_used, ref_report.passes_used,
                  model.weights.tobytes() == ref_model.weights.tobytes()
                  and model.bias == ref_model.bias and report == ref_report)
        """)
        tests_dir = Path(__file__).resolve().parent
        src_dir = Path(trainer.__file__).resolve().parent.parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(tests_dir), str(src_dir)]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["4260", "4260", "True"]

    def test_budget_out_while_shrunk_reports_full_gap(self, left_out):
        ds = noisy_linear_problem()
        budget = 1010   # the first shrink check runs at 1,000 updates; training converges at 1,025
        _, report = train_soft_margin(ds, TrainerConfig(C=0.05, max_passes=budget))
        assert left_out and left_out[0] > 0   # rows were left out when the budget ran out
        assert report.passes_used == budget and not report.converged
        # the unshrunk loop's gap at its next selection is over all rows, after
        # the same `budget` updates
        _, ref = oracles.reference_train_soft_margin(
            ds, TrainerConfig(C=0.05, max_passes=budget + 1))
        assert report.dual_gap == pytest.approx(ref.dual_gap, rel=1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=40),
           st.integers(min_value=1, max_value=4),
           st.sampled_from((0.5, 1.0, 10.0)))
    @settings(max_examples=60, deadline=None)
    @example(seed=822685, m=4, n=1, C=10.0)   # the gap closes on a shrink check
    def test_objective_matches_unshrunk_loop(self, seed, m, n, C):
        # below 1,000 rows a shrink check runs every m updates; a tight
        # tolerance, so that two runs whose updates part ways still end
        # within 1e-9 of each other
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (m, n))
        y = np.concatenate([[1.0, -1.0], np.sign(rng.uniform(-1, 1, m - 2))])
        y[y == 0] = 1.0
        ds = LabeledDataset(X, y)
        config = TrainerConfig(C=C, tolerance=1e-10, max_passes=100_000)
        _, ref = oracles.reference_train_soft_margin(ds, config)
        assume(ref.converged)   # about 1 in 3,000 of these problems exhausts the budget
        _, report = train_soft_margin(ds, config)
        assert report.converged
        assert report.primal_objective == pytest.approx(ref.primal_objective, rel=1e-9)


class TestDecisionFunction:
    def test_demo_instance_value(self, demo_model):
        assert decision_value(demo_model, DEMO_X) == pytest.approx(0.60792, abs=1e-12)

    def test_zero_model_scores_zero(self):
        model = LinearModel(np.zeros(3), 0.0)
        assert decision_value(model, np.array([0.3, 0.9, 0.1])) == 0.0

    def test_identity_single_feature(self):
        model = LinearModel(np.array([1.0]), 0.0)
        assert decision_value(model, np.array([0.25])) == 0.25

    def test_dimension_mismatch_rejected(self, demo_model):
        with pytest.raises(ValueError, match="shape"):
            decision_value(demo_model, np.array([1.0, 2.0, 3.0]))

    def test_vectorized_matches_scalar(self, demo_model):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (9, 2))
        vec = decision_values(demo_model, X)
        scalar = [decision_value(demo_model, x) for x in X]
        assert vec == pytest.approx(scalar, rel=1e-12)


class TestPredict:
    def test_demo_instance_is_positive(self, demo_model):
        assert predict(demo_model, DEMO_X) == 1

    def test_moving_f1_to_upper_bound_flips(self, demo_model):
        assert predict(demo_model, np.array([1.0, 0.3])) == -1

    def test_zero_decision_value_maps_to_negative(self):
        model = LinearModel(np.array([1.0]), -0.5)
        assert predict(model, np.array([0.5])) == -1
