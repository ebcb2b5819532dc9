import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject.dataset import LabeledDataset
from svcreject.rejector import (
    DegenerateGridError,
    RejectModel,
    band_classes,
    calibrate,
    empirical_risk,
    evaluate,
    format_metrics_table,
    metrics_to_json,
    predict_with_reject,
    predictions_with_reject,
    threshold_grid,
)
from svcreject.trainer import LinearModel, TrainerConfig, train_soft_margin

import oracles
from conftest import BAND_T_MINUS, BAND_T_PLUS, BAND_X, DEMO_X


class TestThresholdGrid:
    def test_first_and_last_pairs(self):
        grid = threshold_grid([2.0, -1.0, 0.5])
        assert len(grid) == 100
        assert grid[0] == (0.02, -0.01)
        assert grid[-1] == (2.0, -1.0)

    def test_all_positive_values_rejected(self):
        with pytest.raises(DegenerateGridError, match="straddle"):
            threshold_grid([0.5, 2.0])

    def test_symmetric_extremes_give_symmetric_pairs(self):
        grid = threshold_grid([1.0, -1.0])
        for t_plus, t_minus in grid:
            assert t_plus == -t_minus
        assert [p for p, _ in grid] == [i * 0.01 * 1.0 for i in range(1, 101)]

    def test_custom_resolution(self):
        grid = threshold_grid([1.0, -2.0], steps=4)
        assert grid == [(0.25, -0.5), (0.5, -1.0), (0.75, -1.5), (1.0, -2.0)]

    def test_empty_values_rejected(self):
        with pytest.raises(DegenerateGridError):
            threshold_grid([])


class TestBandClasses:
    def test_band_ends_reject_and_report_knife_edges(self):
        values = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        bound = np.full(values.size, 1e-15)
        classes, near_plus, near_minus = band_classes(
            values, -0.25, 0.25, bound, lambda k: float(values[k]))
        assert classes.tolist() == [-1, 0, 0, 0, 1]
        assert near_plus.tolist() == [False, False, False, True, False]
        assert near_minus.tolist() == [False, True, False, False, False]

    def test_knife_edges_are_decided_by_the_exact_value(self):
        # the float estimates sit on the band's ends; the exact values do not
        values = np.array([0.25, -0.25])
        exact = [0.25 + 2.0 ** -54, -0.25 - 2.0 ** -54]
        classes, _, _ = band_classes(values, -0.25, 0.25, np.full(2, 1e-15), exact.__getitem__)
        assert classes.tolist() == [1, -1]


class TestEmpiricalRisk:
    def test_half_rejected_one_wrong(self):
        # 5 inside the band, 1 of the 5 accepted misclassified: the classes
        # of values [0.0, 0.1, -0.2, 0.3, 0.5, 0.6, 0.7, -0.6, -0.8, 0.9]
        # under the band [-0.5, 0.5]
        classes = [0, 0, 0, 0, 0, 1, 1, -1, -1, 1]
        labels = [1, 1, -1, 1, 1, 1, 1, -1, -1, -1]  # last one wrong
        report = empirical_risk(labels, classes, w_r=0.24)
        assert report.rejection_ratio == 0.5
        assert report.error_ratio == pytest.approx(0.2)
        assert report.risk == pytest.approx(0.32)
        assert report.risk == report.error_ratio + 0.24 * report.rejection_ratio

    def test_no_rejections_all_correct_is_zero_risk(self):
        report = empirical_risk([1, -1], [1, -1], w_r=0.24)
        assert (report.error_ratio, report.rejection_ratio, report.risk) == (0.0, 0.0, 0.0)

    def test_everything_rejected_costs_exactly_wr(self):
        report = empirical_risk([1, -1], [0, 0], w_r=0.24)
        assert report.error_ratio == 0.0
        assert report.rejection_ratio == 1.0
        assert report.risk == 0.24

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            empirical_risk([1], [1, 0], 0.24)


def overlapping_dataset(seed, n=80):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.65, 0.18, (n // 2, 1))
    neg = rng.normal(0.35, 0.18, (n // 2, 1))
    X = np.clip(np.vstack([pos, neg]), 0.0, 1.0)
    y = np.array([1.0] * (n // 2) + [-1.0] * (n // 2))
    return LabeledDataset(X, y)


class TestCalibrate:
    def test_matches_exhaustive_scan(self):
        ds = overlapping_dataset(seed=9)
        model, _ = train_soft_margin(ds)
        rm, report = calibrate(model, ds, w_r=0.24)
        values = (ds.X @ model.weights + model.bias).tolist()
        risk, idx, t_plus, t_minus = oracles.grid_best_risk(ds.y.tolist(), values, 0.24)
        assert report.risk == risk
        assert report.grid_index == idx
        assert (rm.t_plus, rm.t_minus) == (t_plus, t_minus)

    def test_separable_data_rejects_nothing(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.uniform(0.7, 1.0, (20, 1)), rng.uniform(0.0, 0.3, (20, 1))])
        y = np.array([1.0] * 20 + [-1.0] * 20)
        ds = LabeledDataset(X, y)
        model, _ = train_soft_margin(ds, TrainerConfig(C=100.0))
        rm, report = calibrate(model, ds, w_r=0.24)
        assert report.risk == 0.0
        assert report.grid_index == 1
        assert int((predictions_with_reject(rm, X) == 0).sum()) == 0

    def test_risk_ties_break_to_narrowest_band(self):
        # |d| = 1 for every point: bands i = 1..99 reject nothing, i = 100
        # swallows everything, so the tie among zero-risk pairs picks i = 1
        model = LinearModel(np.array([2.0]), -1.0)
        X = np.array([[0.0], [1.0]])
        y = np.array([-1.0, 1.0])
        rm, report = calibrate(model, LabeledDataset(X, y), w_r=0.24)
        assert report.grid_index == 1
        assert (rm.t_plus, rm.t_minus) == (0.01, -0.01)
        assert report.risk == 0.0

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_grid_optimality_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(10, 60))
        values = rng.uniform(-2.0, 2.0, m)
        values[0] = abs(values[0]) + 0.1
        values[1] = -abs(values[1]) - 0.1
        labels = np.sign(rng.uniform(-1, 1, m))
        labels[labels == 0] = 1.0
        w_r = float(rng.uniform(0.05, 1.0))
        model = LinearModel(np.array([1.0]), 0.0)
        ds = LabeledDataset(values.reshape(-1, 1), labels)
        rm, report = calibrate(model, ds, w_r=w_r)
        risk, idx, _, _ = oracles.grid_best_risk(labels.tolist(), values.tolist(), w_r)
        assert report.risk == risk
        assert report.grid_index == idx
        assert report.risk == report.error_ratio + w_r * report.rejection_ratio

    def test_risk_report_agrees_with_evaluate_at_band_edges(self):
        # at one grid step the band's ends are the extreme matmul decision
        # values, and their exact values may fall either side of them: the
        # risk report must count rejections as evaluate predicts them
        for seed in range(400):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(50, 401)), int(rng.integers(5, 61))
            X = rng.uniform(0.0, 1.0, (m, n))
            w = rng.normal(size=n)
            model = LinearModel(w, -float(np.median(X @ w)))
            ds = LabeledDataset(X, np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0))
            rm, risk = calibrate(model, ds, w_r=0.24, grid_steps=1)
            assert risk.rejection_ratio == evaluate(rm, ds).rejection_ratio, seed

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rejection_count_monotone_in_band_width(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-3.0, 3.0, 50)
        values[0], values[1] = 1.0, -1.0
        grid = threshold_grid(values)
        counts = [
            int(((values >= t_minus) & (values <= t_plus)).sum())
            for t_plus, t_minus in grid
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestPredictWithReject:
    def test_band_instance_is_rejected(self, band_reject):
        d = oracles.decision_value(band_reject.model, BAND_X)
        assert d == pytest.approx(0.5830926140545138, abs=1e-12)
        assert BAND_T_MINUS <= d <= BAND_T_PLUS
        assert predict_with_reject(band_reject, BAND_X) == 0

    def test_boundary_value_is_rejected(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -0.25, 0.25, 0.24)
        assert predict_with_reject(rm, np.array([0.25])) == 0
        assert predict_with_reject(rm, np.array([0.2500001])) == 1

    def test_zero_width_band_reduces_to_plain_prediction(self, demo_reject):
        assert predict_with_reject(demo_reject, DEMO_X) == 1

    def test_partition_into_three_classes(self):
        rng = np.random.default_rng(7)
        rm = RejectModel(LinearModel(rng.uniform(-2, 2, 3), 0.1), -0.4, 0.3, 0.24)
        X = rng.uniform(0, 1, (200, 3))
        pred = predictions_with_reject(rm, X)
        assert set(np.unique(pred)).issubset({-1, 0, 1})
        counts = [(pred == k).sum() for k in (-1, 0, 1)]
        assert sum(counts) == 200


class TestEvaluate:
    def test_perfect_classification_without_rejections(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -0.1, 0.1, 0.24)
        ds = LabeledDataset(np.array([[0.9], [-0.9]]), np.array([1.0, -1.0]))
        m = evaluate(rm, ds)
        assert m.accuracy_without_reject == 1.0
        assert m.accuracy_with_reject == 1.0
        assert m.rejection_ratio == 0.0
        assert (m.negative_count, m.rejected_count, m.positive_count) == (1, 0, 1)

    def test_accuracy_counts_only_accepted(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -0.5, 0.5, 0.24)
        values = [0.0, 0.1, -0.2, 0.45, 0.6, 0.7, -0.8, 0.9, -0.9, 0.95]
        labels = [1, 1, -1, 1, 1, 1, -1, -1, -1, 1]  # one accepted mistake
        ds = LabeledDataset(np.array(values).reshape(-1, 1), np.array(labels, dtype=float))
        m = evaluate(rm, ds)
        assert m.rejection_ratio == 0.4
        assert m.accuracy_with_reject == pytest.approx(5 / 6)
        assert m.total == 10

    def test_all_rejected_reports_no_accepted_accuracy(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -1.0, 1.0, 0.24)
        ds = LabeledDataset(np.array([[0.3], [-0.3]]), np.array([1.0, -1.0]))
        m = evaluate(rm, ds)
        assert m.accuracy_with_reject is None
        assert m.rejection_ratio == 1.0

    def test_json_and_table_render(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -0.1, 0.1, 0.24)
        ds = LabeledDataset(np.array([[0.9], [-0.9]]), np.array([1.0, -1.0]))
        m = evaluate(rm, ds)
        doc = metrics_to_json(rm, m)
        assert doc["t_minus"] == -0.1 and doc["positive"] == 1
        table = format_metrics_table(rm, m)
        assert "acc w/ reject" in table.splitlines()[0]


class TestRejectModelInvariants:
    def test_band_must_straddle_zero(self):
        with pytest.raises(ValueError, match="t_minus"):
            RejectModel(LinearModel(np.array([1.0]), 0.0), 0.1, 0.5, 0.24)

    def test_rejection_cost_range(self):
        with pytest.raises(ValueError, match="w_r"):
            RejectModel(LinearModel(np.array([1.0]), 0.0), -0.1, 0.1, 0.0)
