import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject.dataset import DatasetError, FeatureSpace
from svcreject.dataset import LabeledDataset
from svcreject import explainer
from svcreject.explainer import ExplanationBatch, explain_batch, verify_batch
from svcreject.rejector import calibrate, classify, predict_with_reject
from svcreject.trainer import LinearModel, decision_values
from svcreject import RejectModel

import oracles
from oracles import LinearAtom, PartialAssignment, negate, prediction_formula, satisfiable
from conftest import (
    BAND_B,
    BAND_T_MINUS,
    BAND_T_PLUS,
    BAND_W,
    BAND_X,
    DEMO_X,
    certificates,
    random_reject_model,
)


class TestPredictionFormula:
    def test_reject_class_is_band_conjunction(self, band_reject):
        p = prediction_formula(band_reject, 0)
        assert [(a.relation, a.threshold) for a in p] == [
            ("<=", BAND_T_PLUS),
            (">=", BAND_T_MINUS),
        ]

    def test_positive_class_is_single_strict_atom(self, band_reject):
        p = prediction_formula(band_reject, 1)
        assert [(a.relation, a.threshold) for a in p] == [(">", BAND_T_PLUS)]

    def test_negative_class_is_single_strict_atom(self, band_reject):
        p = prediction_formula(band_reject, -1)
        assert [(a.relation, a.threshold) for a in p] == [("<", BAND_T_MINUS)]

    def test_unknown_class_rejected(self, band_reject):
        with pytest.raises(ValueError):
            prediction_formula(band_reject, 2)


class TestNegation:
    def test_single_strict_atom_flips_to_nonstrict(self, demo_reject):
        neg = negate(prediction_formula(demo_reject, 1))
        assert [(a.relation, a.threshold) for a in neg] == [("<=", 0.0)]

    def test_band_conjunction_becomes_two_atom_disjunction(self, band_reject):
        neg = negate(prediction_formula(band_reject, 0))
        assert [(a.relation, a.threshold) for a in neg] == [
            (">", BAND_T_PLUS),
            ("<", BAND_T_MINUS),
        ]

    def test_double_negation_restores_relations(self, band_reject):
        p = prediction_formula(band_reject, 0)
        twice = tuple(a.negated().negated() for a in p)
        assert [a.relation for a in twice] == [a.relation for a in p]


class TestEntailment:
    """A partial assignment entails a class exactly when every atom of the
    negated formula is unsatisfiable over the box."""

    def test_f1_alone_entails_positive(self, demo_reject, demo_space):
        pa = PartialAssignment({0: 0.0526})
        for atom in negate(prediction_formula(demo_reject, 1)):
            assert not satisfiable(atom, pa, demo_space)

    def test_f2_alone_does_not_entail(self, demo_reject, demo_space):
        (atom,) = negate(prediction_formula(demo_reject, 1))
        result = satisfiable(atom, PartialAssignment({1: 0.3}), demo_space)
        assert result
        assert result.witness[0] == 1.0
        assert predict_with_reject(demo_reject, result.witness) == -1

    def test_full_assignment_entails_own_class(self, demo_reject, demo_space):
        pa = PartialAssignment.of_instance(DEMO_X)
        for atom in negate(prediction_formula(demo_reject, 1)):
            assert not satisfiable(atom, pa, demo_space)

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_full_assignment_entails_for_random_models(self, seed, n):
        rng = np.random.default_rng(seed)
        rm = random_reject_model(rng, n)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        x = rng.uniform(0.0, 1.0, n)
        klass = predict_with_reject(rm, x)
        pa = PartialAssignment.of_instance(x)
        for atom in negate(prediction_formula(rm, klass)):
            assert not satisfiable(atom, pa, space)


def explain_one(rm, space, x, order=None):
    """A one-row batch: the explanation of instance x."""
    return explain_batch(rm, space, np.asarray(x, dtype=float)[None], order)


def kept_of(batch, k=0) -> tuple[int, ...]:
    return tuple(np.flatnonzero(~batch.removed[k]).tolist())


def removed_of(batch, k=0) -> tuple[int, ...]:
    return tuple(np.flatnonzero(batch.removed[k]).tolist())


class TestMinimalExplanation:
    def test_demo_instance_keeps_only_f1(self, demo_reject, demo_space):
        batch = explain_one(demo_reject, demo_space, DEMO_X)
        assert batch.classes.tolist() == [1]
        assert kept_of(batch) == (0,)
        assert removed_of(batch) == (1,)
        (witness,) = certificates(batch, 0).values()
        assert predict_with_reject(demo_reject, witness) == -1

    def test_band_instance_drops_exactly_f3(self, band_reject, band_space):
        batch = explain_one(band_reject, band_space, BAND_X)
        assert batch.classes.tolist() == [0]
        assert removed_of(batch) == (2,)
        assert kept_of(batch) == (0, 1, 3, 4, 5)

    def test_band_instance_agrees_with_vertex_driven_elimination(self, band_reject, band_space):
        # re-derive the kept set with entailment decided by corner enumeration
        neg = negate(prediction_formula(band_reject, 0))
        atoms = [(a.relation, a.threshold) for a in neg]
        lower, upper = band_space.lower, band_space.upper

        def oracle(rel, thr, fixed):
            return oracles.vertex_sat(BAND_W, BAND_B, rel, thr, fixed, lower, upper)

        kept = oracles.minimal_explanation_via_vertices(
            oracle, BAND_W, BAND_B, atoms, BAND_X, lower, upper, range(6)
        )
        batch = explain_one(band_reject, band_space, BAND_X)
        assert kept_of(batch) == kept == (0, 1, 3, 4, 5)

    def test_query_budget_is_two_per_feature(self, band_reject, band_space):
        batch = explain_one(band_reject, band_space, BAND_X)
        assert batch.queries[0] <= 2 * len(band_space)
        assert batch.knife_edges[0] == 0

    @pytest.mark.parametrize("w, b, klass, kept, queries, knife_edges", [
        # +1: freeing f1 puts the minimum of d exactly on t_plus
        (1.0, 0.0, 1, (0,), 1, 1),
        # -1: freeing f1 puts the maximum of d exactly on t_minus
        (1.0, -1.0, -1, (0,), 1, 1),
        # reject: d is 0 everywhere, on both ends of the band; the class's
        # two comparisons and both questions are knife edges
        (0.0, 0.0, 0, (), 2, 4),
    ], ids=["positive", "negative", "reject"])
    def test_knife_edge_queries_surface_in_explanation(self, w, b, klass, kept, queries,
                                                       knife_edges):
        rm = RejectModel(LinearModel(np.array([w]), b), 0.0, 0.0, 0.24)
        space = FeatureSpace.unit(["f1"])
        batch = explain_one(rm, space, np.array([0.5]))
        assert batch.classes.tolist() == [klass]
        assert kept_of(batch) == kept
        assert batch.queries.tolist() == [queries]
        assert batch.knife_edges.tolist() == [knife_edges]

    def test_out_of_domain_instance_rejected(self, demo_reject, demo_space):
        with pytest.raises(DatasetError):
            explain_one(demo_reject, demo_space, np.array([1.2, 0.3]))

    def test_bad_order_rejected(self, demo_reject, demo_space):
        with pytest.raises(ValueError, match="permutation"):
            explain_one(demo_reject, demo_space, DEMO_X, order=[0, 0])

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=9))
    @settings(max_examples=100, deadline=None)
    def test_zero_weight_features_never_kept(self, seed, n):
        rng = np.random.default_rng(seed)
        rm = random_reject_model(rng, n)
        zeroed = int(rng.integers(n))
        w = rm.model.weights.copy()
        w[zeroed] = 0.0
        rm = RejectModel(LinearModel(w, rm.model.bias), rm.t_minus, rm.t_plus, rm.w_r)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        x = rng.uniform(0.0, 1.0, n)
        assert zeroed in removed_of(explain_one(rm, space, x))

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_any_elimination_order_yields_verified_explanation(self, seed, n):
        rng = np.random.default_rng(seed)
        rm = random_reject_model(rng, n)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        x = rng.uniform(0.0, 1.0, n)
        order = rng.permutation(n)
        (report,) = verify_batch(rm, space, explain_one(rm, space, x, order=order))
        assert report, report.violations

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_completions_never_flip_class(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        rm = random_reject_model(rng, n)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        x = rng.uniform(0.0, 1.0, n)
        batch = explain_one(rm, space, x)
        kept = list(kept_of(batch))
        samples = rng.uniform(0.0, 1.0, (200, n))
        samples[:, kept] = x[kept]
        d = samples @ rm.model.weights + rm.model.bias
        classes = np.where(d > rm.t_plus, 1, np.where(d < rm.t_minus, -1, 0))
        assert np.all(classes == batch.classes[0])


ORDERS = ("ascending", "descending-weight", "lex")


@st.composite
def batch_cases(draw):
    """A random model over a random box and rows that include box corners.

    Some weights are zero.  The bias puts the first row in the drawn class,
    and with ``on_edge`` exactly on the band edge that class's threshold
    sets, where only the exact kernel can decide.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    klass = draw(st.sampled_from((-1, 0, 1)))
    order_name = draw(st.sampled_from(ORDERS))
    on_edge = draw(st.booleans())
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, 0.5, n)
    upper = lower + rng.uniform(0.1, 2.0, n)
    w = rng.uniform(-3.0, 3.0, n)
    w[rng.random(n) < 0.25] = 0.0
    X = rng.uniform(lower, upper, (6, n))
    where = rng.random((6, n))
    X = np.where(where < 0.25, lower, np.where(where > 0.75, upper, X))
    t_plus, t_minus = float(rng.uniform(0.0, 1.0)), float(-rng.uniform(0.0, 1.0))
    target = {1: t_plus, -1: t_minus, 0: float(rng.uniform(t_minus, t_plus))}[klass]
    gap = 0.0 if on_edge or klass == 0 else klass * float(rng.uniform(1e-3, 0.5))
    bias = target - float(X[0] @ w) + gap
    rm = RejectModel(LinearModel(w, bias), t_minus, t_plus, 0.24)
    names = [f"f{j}" for j in rng.permutation(n)]
    space = FeatureSpace(names, lower, upper)
    if order_name == "ascending":
        order = list(range(n))
    elif order_name == "descending-weight":
        order = np.argsort(-np.abs(w), kind="stable").tolist()
    else:
        order = sorted(range(n), key=lambda i: names[i])
    return rm, space, X, order


class TestBatchedPass:
    @given(batch_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_query_per_step_reference(self, case):
        rm, space, X, order = case
        batch = explain_batch(rm, space, X, order)
        assert len(batch) == X.shape[0]
        reports = verify_batch(rm, space, batch)
        for k, x in enumerate(X):
            klass, kept, removed, expected, queries = (
                oracles.minimal_explanation_by_queries(rm, space, x, order))
            assert batch.classes[k] == klass
            assert kept_of(batch, k) == kept
            assert removed_of(batch, k) == removed
            got = certificates(batch, k)
            assert sorted(got) == sorted(expected)
            for i, point in expected.items():
                # bit for bit, so that a -0.0 corner stays -0.0
                assert got[i].tobytes() == point.tobytes()
            assert reports[k].witness_classes.tolist() == [
                predict_with_reject(rm, expected[i]) for i in kept]
            assert batch.queries[k] == queries <= 2 * len(space)
            assert reports[k], reports[k].violations

    @given(batch_cases())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_vertex_oracle(self, case):
        rm, space, X, order = case
        w, b = rm.model.weights, rm.model.bias
        batch = explain_batch(rm, space, X, order)
        for k, x in enumerate(X):
            if batch.knife_edges[k]:
                continue  # float corner enumeration cannot settle a knife edge
            atoms = [(a.relation, a.threshold)
                     for a in negate(prediction_formula(rm, int(batch.classes[k])))]

            def oracle(rel, thr, fixed):
                atom = LinearAtom(w, b, rel, thr)
                return oracles.satisfiable_vertex_oracle(
                    atom, PartialAssignment(dict(fixed)), space)

            kept = oracles.minimal_explanation_via_vertices(
                oracle, w, b, atoms, x, space.lower, space.upper, order)
            assert kept_of(batch, k) == kept

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_band_edge_from_calibration_verifies(self, seed, n):
        # calibrate at grid index == steps puts t_plus/t_minus exactly on the
        # largest/smallest matmul decision value of the calibration rows
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (40, n))
        w = rng.normal(size=n)
        model = LinearModel(w, -float(np.median(X @ w)))
        y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        rm, _ = calibrate(model, LabeledDataset(X, y), 0.24, grid_steps=1)
        d = decision_values(model, X)
        assert (rm.t_plus, rm.t_minus) == (d.max(), d.min())
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        for x in (X[np.argmax(d)], X[np.argmin(d)]):
            (report,) = verify_batch(rm, space, explain_one(rm, space, x))
            assert report, report.violations
        for report in verify_batch(rm, space, explain_batch(rm, space, X)):
            assert report, report.violations

    def test_rows_outside_the_box_rejected(self, demo_reject, demo_space):
        with pytest.raises(DatasetError):
            explain_batch(demo_reject, demo_space, np.array([[0.5, 0.5], [1.2, 0.3]]))

    def test_empty_batch(self, demo_reject, demo_space):
        assert len(explain_batch(demo_reject, demo_space, np.zeros((0, 2)))) == 0

    @pytest.mark.parametrize("bias, klass", [(0.5, 1), (0.0, 0), (-0.5, -1)])
    def test_zero_features_classify_each_row_by_the_bias(self, bias, klass):
        rm = RejectModel(LinearModel(np.zeros(0), bias), -0.25, 0.25, 0.24)
        space = FeatureSpace.unit([])
        batch = explain_batch(rm, space, np.zeros((2, 0)))
        assert batch.classes.tolist() == [klass, klass]
        assert batch.removed.shape == (2, 0)
        reports = verify_batch(rm, space, batch)
        assert len(reports) == 2
        assert all(report and report.witness_classes.size == 0 for report in reports)


def patch_witnesses(monkeypatch, change):
    """Hand ``verify_batch`` the witness layout ``change`` makes of the real
    one, (rows, features, free masks, sides)."""
    witnesses = ExplanationBatch.witnesses
    monkeypatch.setattr(ExplanationBatch, "witnesses",
                        lambda self, start, stop: change(*witnesses(self, start, stop)))


class TestVerifyExplanation:
    """The checks of ``verify_batch`` on one-row batches, each with one part
    of the explanation broken."""

    @pytest.fixture
    def batch(self, band_reject, band_space):
        batch = explain_one(band_reject, band_space, BAND_X)
        assert kept_of(batch) == (0, 1, 3, 4, 5)
        return batch

    def test_accepts_generated_explanations(self, band_reject, band_space, batch):
        assert all(verify_batch(band_reject, band_space, batch))

    def test_detects_missing_kept_feature(self, band_reject, band_space, batch):
        removed = batch.removed.copy()
        removed[0, 0] = True
        (report,) = verify_batch(band_reject, band_space,
                                 dataclasses.replace(batch, removed=removed))
        assert not report
        assert any("sufficiency" in v for v in report.violations)

    def test_detects_redundant_feature(self, band_reject, band_space, batch):
        removed = batch.removed.copy()
        removed[0, 2] = False
        (report,) = verify_batch(band_reject, band_space,
                                 dataclasses.replace(batch, removed=removed))
        assert not report
        assert any("minimality" in v for v in report.violations)

    def test_detects_useless_certificate(self, band_reject, band_space, batch):
        # f1's witness moved to the other extremum stays in the reject band
        at_max = batch.at_max.copy()
        at_max[0, 0] = not at_max[0, 0]
        (report,) = verify_batch(band_reject, band_space,
                                 dataclasses.replace(batch, at_max=at_max))
        assert report.violations == ("certificate for feature 'f1' does not flip the class",)

    # the certificate contract: one certificate per kept feature and none for
    # a removed one, each inside the box and each leaving the other kept
    # values alone

    def test_detects_missing_certificates(self, band_reject, band_space, batch, monkeypatch):
        patch_witnesses(monkeypatch, lambda *layout: tuple(part[:0] for part in layout))
        (report,) = verify_batch(band_reject, band_space, batch)
        assert not report
        assert report.violations == tuple(
            f"kept feature {band_space.names[i]!r} has no certificate"
            for i in kept_of(batch))

    def test_detects_one_certificate_of_five(self, band_reject, band_space, batch, monkeypatch):
        patch_witnesses(monkeypatch, lambda *layout: tuple(part[:1] for part in layout))
        (report,) = verify_batch(band_reject, band_space, batch)
        assert not report
        assert len(report.violations) == 4
        assert all(v.endswith("has no certificate") for v in report.violations)

    def test_detects_certificate_for_removed_feature(self, band_reject, band_space, batch,
                                                     monkeypatch):
        assert removed_of(batch) == (2,)

        def with_f3(rows, features, free, at_max):
            # f3 gets a copy of f1's witness
            return (np.append(rows, 0), np.append(features, 2), np.vstack([free, free[:1]]),
                    np.append(at_max, at_max[0]))

        patch_witnesses(monkeypatch, with_f3)
        (report,) = verify_batch(band_reject, band_space, batch)
        assert not report
        assert "certificate for feature 'f3', which is not kept" in report.violations

    def test_detects_certificates_outside_box_moving_kept_features(self, band_reject, band_space,
                                                                   batch, monkeypatch):
        far = 50.0 * np.sign(BAND_W)
        assert predict_with_reject(band_reject, far) != batch.classes[0]
        monkeypatch.setattr(explainer, "witness_points",
                            lambda free, *_: np.tile(far, (len(free), 1)))
        (report,) = verify_batch(band_reject, band_space, batch)
        assert not report
        for i in kept_of(batch):
            name = band_space.names[i]
            assert f"certificate for feature {name!r} lies outside the box" in report.violations
            assert f"certificate for feature {name!r} moves another kept feature" in report.violations


def _mutations(batch):
    """The batch and its broken variants, each broken in every row where it
    can be: the first kept feature dropped, its witness moved to the other
    extremum, and the first removed feature kept."""
    rows = np.arange(len(batch))
    first_kept, first_removed = np.argmax(~batch.removed, axis=1), np.argmax(batch.removed, axis=1)
    has_kept, has_removed = (~batch.removed).any(axis=1), batch.removed.any(axis=1)
    dropped, kept, at_max = batch.removed.copy(), batch.removed.copy(), batch.at_max.copy()
    dropped[rows[has_kept], first_kept[has_kept]] = True
    at_max[rows[has_kept], first_kept[has_kept]] ^= True
    kept[rows[has_removed], first_removed[has_removed]] = False
    return [batch, dataclasses.replace(batch, removed=dropped),
            dataclasses.replace(batch, at_max=at_max), dataclasses.replace(batch, removed=kept)]


def _verdicts(report):
    """Sufficiency, minimality and witness-class violations, in order."""
    return [v for v in report.violations
            if v.startswith(("sufficiency", "minimality")) or v.endswith("does not flip the class")]


class TestVerifyBatch:
    @given(batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_core_agrees_with_closed_form_reference(self, case):
        rm, space, X, order = case
        for batch in _mutations(explain_batch(rm, space, X, order)):
            for k, report in enumerate(verify_batch(rm, space, batch)):
                row = oracles.ExplainedRow(X[k], int(batch.classes[k]), ~batch.removed[k],
                                           certificates(batch, k))
                reference = oracles.verify_explanation_closed_form(rm, space, row)
                assert _verdicts(report) == _verdicts(reference)
                items = sorted(row.certificates.items())
                assert report.witness_classes.tolist() == [
                    predict_with_reject(rm, p) for _, p in items]

    @given(batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_batch_reports_equal_one_row_reports(self, case):
        rm, space, X, order = case
        batch = explain_batch(rm, space, X, order)
        reports = verify_batch(rm, space, batch)
        assert len(reports) == len(batch)
        for k, report in enumerate(reports):
            (one,) = verify_batch(rm, space, explain_batch(rm, space, X[k:k + 1], order))
            assert report and one, (report.violations, one.violations)
            assert report.witness_classes.tolist() == one.witness_classes.tolist()

    def test_detects_broken_rows_only(self, band_reject, band_space):
        X = np.vstack([BAND_X, BAND_X, BAND_X])
        batch = explain_batch(band_reject, band_space, X)
        removed = batch.removed.copy()
        removed[1, 0] = True    # row 1 loses a kept feature
        removed[2, 2] = False   # row 2 keeps the droppable f3
        reports = verify_batch(band_reject, band_space,
                               dataclasses.replace(batch, removed=removed))
        assert reports[0]
        assert any("sufficiency" in v for v in reports[1].violations)
        assert "minimality: feature 'f3' is droppable" in reports[2].violations

    def test_witnesses_classified_in_bounded_chunks(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 8
        rm = random_reject_model(rng, n)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        batch = explain_batch(rm, space, rng.uniform(0.0, 1.0, (40, n)))
        whole = verify_batch(rm, space, batch)
        sizes = []

        def recording(rm, points):
            sizes.append(len(points))
            return classify(rm, points)

        monkeypatch.setattr(explainer, "VERIFY_CHUNK_CELLS", 3 * n * n)
        monkeypatch.setattr(explainer, "classify", recording)
        chunked = verify_batch(rm, space, batch)
        assert len(sizes) == 14 and max(sizes) <= 3 * n
        assert sum(sizes) == int((~batch.removed).sum())
        for a, b in zip(whole, chunked):
            assert a.violations == b.violations
            assert a.witness_classes.tolist() == b.witness_classes.tolist()

