import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject.dataset import FeatureSpace, LabeledDataset
from svcreject.explainer import BoxExtrema
from svcreject.rejector import (
    RejectModel,
    band_classes,
    calibrate,
    error_bound,
    evaluate,
    exact_value,
    classify,
)
from svcreject.trainer import LinearModel, TrainerConfig, train_soft_margin

import oracles
from conftest import BAND_T_MINUS, BAND_T_PLUS, BAND_X, DEMO_X


def identity_dataset(values, labels) -> LabeledDataset:
    """Rows whose decision values under ``IDENTITY`` are ``values``."""
    return LabeledDataset(np.array(values, dtype=float).reshape(-1, 1),
                          np.array(labels, dtype=float))


IDENTITY = LinearModel(np.array([1.0]), 0.0)


def misclassified_at(t_plus: float, lower: float, upper: float) -> LabeledDataset:
    """Correctly labelled rows at the extremes ``upper`` and ``lower`` plus a
    misclassified row at ``t_plus``: at w_r = 0.25 the grid pair whose band
    ends at ``t_plus`` has the least risk."""
    return identity_dataset([upper, lower, t_plus], [1, -1, -1])


class TestThresholdGrid:
    """``calibrate``'s grid: pair i of s steps is i/s of the extreme decision
    values."""

    def test_first_and_last_pairs(self):
        ds = identity_dataset([2.0, -1.0, 0.5], [1, -1, 1])
        rm, report = calibrate(IDENTITY, ds, w_r=0.24)
        assert report.grid_index == 1
        assert (rm.t_plus, rm.t_minus) == (0.02, -0.01)
        rm, report = calibrate(IDENTITY, ds, w_r=0.24, grid_steps=1)
        assert report.grid_index == 1
        assert (rm.t_plus, rm.t_minus) == (2.0, -1.0)

    def test_all_positive_values_rejected(self):
        with pytest.raises(ValueError, match="decision values must straddle zero"):
            calibrate(IDENTITY, identity_dataset([0.5, 2.0], [1, 1]), w_r=0.24)

    def test_symmetric_extremes_give_symmetric_pairs(self):
        for i in range(1, 101):
            rm, report = calibrate(IDENTITY, misclassified_at(i * 0.01 * 1.0, -1.0, 1.0),
                                   w_r=0.25)
            assert report.grid_index == i
            assert rm.t_plus == -rm.t_minus == i * 0.01 * 1.0

    def test_custom_resolution(self):
        pairs = [(0.25, -0.5), (0.5, -1.0), (0.75, -1.5), (1.0, -2.0)]
        for i, (t_plus, t_minus) in enumerate(pairs, start=1):
            rm, report = calibrate(IDENTITY, misclassified_at(t_plus, -2.0, 1.0), w_r=0.25,
                                   grid_steps=4)
            assert report.grid_index == i
            assert (rm.t_plus, rm.t_minus) == (t_plus, t_minus)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no decision values to build a grid from"):
            calibrate(IDENTITY, identity_dataset([], []), w_r=0.24)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="grid steps must be a positive integer"):
            calibrate(IDENTITY, identity_dataset([1.0, -1.0], [1, -1]), w_r=0.24,
                      grid_steps=0)


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

    def test_value_near_both_thresholds_is_decided_exactly_once(self):
        # a band narrower than the bound: each value is near both ends
        values = np.array([0.0, 1e-13, -1e-13])
        exact = [0.5e-13, 1e-13, -1e-13]
        calls = []

        def counting(k):
            calls.append(k)
            return exact[k]

        classes, near_plus, near_minus = band_classes(values, -1e-14, 1e-14, 1e-12, counting)
        assert classes.tolist() == [1, 1, -1]
        assert near_plus.all() and near_minus.all()
        assert calls == [0, 1, 2]


@st.composite
def badly_scaled_models(draw, max_features=80, max_rows=8):
    """Weights spanning 1e-8..1e8 in magnitude, with cancelling pairs such as
    (1e16, -1e16) whose partners share their coordinate, a bias of any such
    size, and rows in the unit box, many on its corners."""
    n = draw(st.integers(min_value=1, max_value=max_features))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    w = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    b = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 8.0))
    X = rng.uniform(0.0, 1.0, (int(rng.integers(1, max_rows + 1)), n))
    corners = rng.random(X.shape) < 0.5
    X[corners] = rng.integers(0, 2, X.shape)[corners]
    pairs = rng.permutation(n)[:2 * int(rng.integers(0, n // 2 + 1))].reshape(-1, 2)
    for i, j in pairs:
        w[i] = 10.0 ** rng.uniform(8.0, 16.0)
        w[j] = -w[i]
        X[:, j] = X[:, i]
    return w, b, X


class TestErrorBound:
    @given(badly_scaled_models())
    @settings(max_examples=200, deadline=None)
    def test_bounds_the_float_decision_value(self, case):
        w, b, X = case
        d = X @ w + b
        bound = error_bound(np.abs(X) @ np.abs(w) + abs(b), w.size)
        exact = np.array([exact_value((x * w).tolist(), b) for x in X])
        assert np.all(np.abs(d - exact) <= bound)

    @given(badly_scaled_models(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bounds_the_running_extrema(self, case, seed):
        # the elimination pass moves each extremum by extreme[i] - w_i * x_i
        # as it frees feature i; free every feature, in random order
        w, b, X = case
        box = BoxExtrema.of(w, b, FeatureSpace.unit([f"f{i}" for i in range(w.size)]))
        order = np.random.default_rng(seed).permutation(w.size)
        for x in X:
            products = x * w
            for extreme in (box.max_term, box.min_term):
                running = float(x @ w + b)
                terms = products.copy()
                for i in order:
                    running += extreme[i] - products[i]
                    terms[i] = extreme[i]
                    assert abs(running - exact_value(terms.tolist(), b)) <= box.bound


class TestEmpiricalRisk:
    """``calibrate``'s risk: the error ratio among accepted rows plus w_r
    times the rejection ratio."""

    def test_half_rejected_one_wrong(self):
        # the band [-0.5, 0.5] rejects 5 of 10 rows and 1 of the 5 accepted
        # is wrong; the band [-1, 1] rejects everything at the higher cost 0.5
        values = [0.0, 0.1, -0.2, 0.3, 0.45, 0.6, 0.7, -0.6, -1.0, 1.0]
        labels = [1, 1, -1, 1, 1, 1, 1, -1, -1, -1]  # last one wrong
        rm, report = calibrate(IDENTITY, identity_dataset(values, labels), w_r=0.5,
                               grid_steps=2)
        assert (rm.t_plus, rm.t_minus) == (0.5, -0.5)
        assert (report.error_ratio, report.rejection_ratio) == (0.2, 0.5)
        assert report.risk == report.error_ratio + 0.5 * report.rejection_ratio

    def test_no_rejections_all_correct_is_zero_risk(self):
        _, report = calibrate(IDENTITY, identity_dataset([1.0, -1.0], [1, -1]), w_r=0.24)
        assert (report.error_ratio, report.rejection_ratio, report.risk) == (0.0, 0.0, 0.0)

    def test_everything_rejected_costs_exactly_wr(self):
        # one grid step: the band is the extremes, which it rejects too
        _, report = calibrate(IDENTITY, identity_dataset([1.0, -1.0], [-1, 1]), w_r=0.24,
                              grid_steps=1)
        assert report.error_ratio == 0.0
        assert report.rejection_ratio == 1.0
        assert report.risk == 0.24


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
        risk, idx, t_plus, t_minus = oracles.grid_best_risk(ds.y, model, ds.X, 0.24)
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
        assert int((classify(rm, X)[0] == 0).sum()) == 0

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
        risk, idx, _, _ = oracles.grid_best_risk(labels, model, ds.X, w_r)
        assert report.risk == risk
        assert report.grid_index == idx
        assert report.risk == report.error_ratio + w_r * report.rejection_ratio

    def test_matches_exact_grid_scan_on_random_models(self):
        # rows at a band end (the extreme rows at the widest band, for one)
        # are classified by their exact values: a scan that compares the
        # float values disagrees with calibrate on about a third of these
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(20, 201)), int(rng.integers(5, 61))
            X = rng.uniform(0.0, 1.0, (m, n))
            w = rng.normal(size=n)
            model = LinearModel(w, -float(np.median(X @ w)))
            labels = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
            w_r = float(rng.uniform(0.05, 0.5))
            rm, report = calibrate(model, LabeledDataset(X, labels), w_r=w_r)
            expected = oracles.grid_best_risk(labels, model, X, w_r)
            assert (report.risk, report.grid_index, rm.t_plus, rm.t_minus) == expected, seed

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
        grid = [(i * 0.01 * values.max(), i * 0.01 * values.min()) for i in range(1, 101)]
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
        assert oracles.classify_one(band_reject, BAND_X) == 0

    def test_boundary_value_is_rejected(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -0.25, 0.25, 0.24)
        assert oracles.classify_one(rm, np.array([0.25])) == 0
        assert oracles.classify_one(rm, np.array([0.2500001])) == 1

    def test_zero_width_band_reduces_to_plain_prediction(self, demo_reject):
        assert oracles.classify_one(demo_reject, DEMO_X) == 1

    def test_partition_into_three_classes(self):
        rng = np.random.default_rng(7)
        rm = RejectModel(LinearModel(rng.uniform(-2, 2, 3), 0.1), -0.4, 0.3, 0.24)
        X = rng.uniform(0, 1, (200, 3))
        pred, _ = classify(rm, X)
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
        assert m.negative_count + m.rejected_count + m.positive_count == 10

    def test_plain_accuracy_is_decided_by_the_exact_value(self):
        # the float decision value of x is 0.0, the exact one 1.0: the row
        # is +1 with the band collapsed to 0, as band_classes decides it
        rm = RejectModel(LinearModel(np.array([1e16, 1.0, -1e16]), 0.0), 0.0, 0.0, 0.24)
        ds = LabeledDataset(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]))
        m = evaluate(rm, ds)
        assert m.accuracy_without_reject == 1.0
        assert m.accuracy_with_reject == 1.0

    def test_plain_accuracy_maps_exact_zero_to_negative(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), 0.0, 0.0, 0.24)
        ds = LabeledDataset(np.array([[0.0], [0.0]]), np.array([-1.0, 1.0]))
        assert evaluate(rm, ds).accuracy_without_reject == 0.5

    def test_all_rejected_reports_no_accepted_accuracy(self):
        rm = RejectModel(LinearModel(np.array([1.0]), 0.0), -1.0, 1.0, 0.24)
        ds = LabeledDataset(np.array([[0.3], [-0.3]]), np.array([1.0, -1.0]))
        m = evaluate(rm, ds)
        assert m.accuracy_with_reject is None
        assert m.rejection_ratio == 1.0


class TestRejectModelInvariants:
    def test_band_must_straddle_zero(self):
        with pytest.raises(ValueError, match="t_minus"):
            RejectModel(LinearModel(np.array([1.0]), 0.0), 0.1, 0.5, 0.24)

    def test_rejection_cost_range(self):
        with pytest.raises(ValueError, match="w_r"):
            RejectModel(LinearModel(np.array([1.0]), 0.0), -0.1, 0.1, 0.0)
