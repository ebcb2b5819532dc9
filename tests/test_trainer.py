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
def outer_steps(monkeypatch):
    """Records the rows of each working set, and the multipliers at each
    all-rows gap check."""
    steps = {"sets": [], "alphas": []}
    working_set, side_penalties = trainer._working_set, trainer._side_penalties

    def spy_set(*args):
        rows = working_set(*args)
        steps["sets"].append(rows)
        return rows

    def spy_penalties(y, alpha, C):
        steps["alphas"].append(alpha.copy())
        return side_penalties(y, alpha, C)

    monkeypatch.setattr(trainer, "_working_set", spy_set)
    monkeypatch.setattr(trainer, "_side_penalties", spy_penalties)
    return steps


class TestWorkingSets:
    """The working-set trainer against the reference loop, which makes one
    full-matrix pair update at a time (``oracles.reference_train_soft_margin``).
    The two make different updates, so they are compared at a tight tolerance,
    where the stopping rule bounds how far their objectives may differ."""

    TIGHT = dict(tolerance=1e-10, max_passes=100_000)

    @staticmethod
    def assert_objectives_agree(report, ref, ds, config):
        # both stop with every KKT violation at most the tolerance, with the
        # intercept between the two sides' extreme scores.  Then each row adds
        # at most C * tolerance to the duality gap, and each objective lies
        # within m * C * tolerance above the optimum.
        assert ref.converged and report.converged
        bound = len(ds.y) * config.C * config.tolerance
        assert abs(report.primal_objective - ref.primal_objective) <= bound

    def assert_reference_objective(self, ds, config):
        _, ref = oracles.reference_train_soft_margin(ds, config)
        _, report = train_soft_margin(ds, config)
        self.assert_objectives_agree(report, ref, ds, config)

    def test_iris_converges_to_reference_objective(self):
        ds = iris_training_rows()
        _, report = train_soft_margin(ds, TrainerConfig())
        assert report.converged
        self.assert_reference_objective(ds, TrainerConfig(**self.TIGHT))

    def test_large_problem_converges_to_reference_objective(self, outer_steps):
        ds = noisy_linear_problem()
        self.assert_reference_objective(ds, TrainerConfig(C=0.05, **self.TIGHT))
        # more rows than WORKING_SET: every outer step works on a subset
        sizes = [rows.size for rows in outer_steps["sets"]]
        assert len(sizes) > 1 and max(sizes) < len(ds.y)

    def test_budget_out_inside_working_set_reports_full_gap(self, outer_steps):
        ds = noisy_linear_problem()
        # the second working set makes updates 111-226 and the budget ends it at 150
        budget = 150
        model, report = train_soft_margin(ds, TrainerConfig(C=0.05, max_passes=budget))
        assert len(outer_steps["sets"]) == 2
        assert report.passes_used == budget and not report.converged
        # the gap over all rows, from the fitted weights and the final multipliers
        up_pen, low_pen = trainer._side_penalties(ds.y, outer_steps["alphas"][-1], 0.05)
        scores = ds.y - ds.X @ model.weights
        gap = np.max(scores + up_pen) - np.min(scores + low_pen)
        assert report.dual_gap == pytest.approx(gap, rel=1e-9)

    @pytest.mark.parametrize("size", [trainer.WORKING_SET, 4])
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=40),
           st.integers(min_value=1, max_value=4),
           st.sampled_from((0.5, 1.0, 10.0)))
    @settings(max_examples=60, deadline=None)
    # fixed problems, run at both sizes on every test run
    @example(seed=1753155266, m=37, n=2, C=0.5)
    @example(seed=804016632, m=18, n=3, C=10.0)
    # the two intercepts differ by 5e-11, which moves three slacks at C = 10:
    # the objectives differ by 1.1e-9 relative, within the stopping rule's bound
    @example(seed=101791658, m=3, n=3, C=10.0)
    def test_objective_matches_reference_loop(self, size, seed, m, n, C):
        # at the default size every problem here is one working set; at 4
        # rows the outer steps pick subsets
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, (m, n))
        y = np.concatenate([[1.0, -1.0], np.sign(rng.uniform(-1, 1, m - 2))])
        y[y == 0] = 1.0
        ds = LabeledDataset(X, y)
        config = TrainerConfig(C=C, **self.TIGHT)
        _, ref = oracles.reference_train_soft_margin(ds, config)
        assume(ref.converged)   # about 1 in 3,000 of these problems exhausts the budget
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "WORKING_SET", size)
            _, report = train_soft_margin(ds, config)
        self.assert_objectives_agree(report, ref, ds, config)


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

    def test_zero_features_give_the_bias_per_row(self, demo_model):
        model = LinearModel(np.zeros(0), 0.5)
        assert decision_values(model, np.zeros((3, 0))).tolist() == [0.5, 0.5, 0.5]
        assert decision_values(model, np.zeros((0, 0))).shape == (0,)
        with pytest.raises(ValueError, match="shape"):
            decision_values(demo_model, np.zeros((3, 0)))

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
