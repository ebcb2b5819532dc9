import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject.dataset import DatasetError, FeatureSpace
from svcreject.dataset import LabeledDataset
from svcreject import explainer
from svcreject.explainer import (
    explain_batch,
    feature_frequency,
    minimal_explanation,
    verify_batch,
    verify_explanation,
)
from svcreject.rejector import calibrate, predict_with_reject, predictions_with_reject
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


class TestMinimalExplanation:
    def test_demo_instance_keeps_only_f1(self, demo_reject, demo_space):
        expl = minimal_explanation(demo_reject, demo_space, DEMO_X)
        assert expl.klass == 1
        assert expl.kept == ((0, 0.0526),)
        assert expl.removed == (1,)
        witness = expl.certificates[0]
        assert predict_with_reject(demo_reject, witness) == -1

    def test_band_instance_drops_exactly_f3(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        assert expl.klass == 0
        assert expl.removed == (2,)
        assert expl.kept_indices == (0, 1, 3, 4, 5)

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
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        assert expl.kept_indices == kept == (0, 1, 3, 4, 5)

    def test_query_budget_is_two_per_feature(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        assert expl.queries <= 2 * len(band_space)
        assert expl.knife_edge_queries == 0

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
        expl = minimal_explanation(rm, space, np.array([0.5]))
        assert expl.klass == klass
        assert expl.kept_indices == kept
        assert expl.queries == queries
        assert expl.knife_edge_queries == knife_edges

    def test_out_of_domain_instance_rejected(self, demo_reject, demo_space):
        with pytest.raises(DatasetError):
            minimal_explanation(demo_reject, demo_space, np.array([1.2, 0.3]))

    def test_bad_order_rejected(self, demo_reject, demo_space):
        with pytest.raises(ValueError, match="permutation"):
            minimal_explanation(demo_reject, demo_space, DEMO_X, order=[0, 0])

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
        expl = minimal_explanation(rm, space, x)
        assert zeroed in expl.removed

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_any_elimination_order_yields_verified_explanation(self, seed, n):
        rng = np.random.default_rng(seed)
        rm = random_reject_model(rng, n)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        x = rng.uniform(0.0, 1.0, n)
        order = rng.permutation(n)
        expl = minimal_explanation(rm, space, x, order=order)
        report = verify_explanation(rm, space, expl)
        assert report, report.violations

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_completions_never_flip_class(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        rm = random_reject_model(rng, n)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        x = rng.uniform(0.0, 1.0, n)
        expl = minimal_explanation(rm, space, x)
        samples = rng.uniform(0.0, 1.0, (200, n))
        for i, v in expl.kept:
            samples[:, i] = v
        d = samples @ rm.model.weights + rm.model.bias
        classes = np.where(d > rm.t_plus, 1, np.where(d < rm.t_minus, -1, 0))
        assert np.all(classes == expl.klass)


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
        for k, x in enumerate(X):
            expl = batch.explanation(k)
            klass, kept, removed, certificates, queries = (
                oracles.minimal_explanation_by_queries(rm, space, x, order))
            assert expl.klass == klass
            assert expl.kept_indices == kept
            assert expl.removed == removed
            assert expl.kept == tuple((i, float(x[i])) for i in kept)
            assert sorted(expl.certificates) == sorted(certificates)
            for i, point in certificates.items():
                # bit for bit, so that a -0.0 corner stays -0.0
                assert expl.certificates[i].tobytes() == point.tobytes()
            points = np.array([expl.certificates[i] for i in kept]).reshape(-1, len(space))
            assert predictions_with_reject(rm, points).tolist() == [
                predict_with_reject(rm, certificates[i]) for i in kept]
            assert expl.queries == queries <= 2 * len(space)
            report = verify_explanation(rm, space, expl)
            assert report, report.violations

    @given(batch_cases())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_vertex_oracle(self, case):
        rm, space, X, order = case
        w, b = rm.model.weights, rm.model.bias
        batch = explain_batch(rm, space, X, order)
        for k, x in enumerate(X):
            expl = batch.explanation(k)
            if expl.knife_edge_queries:
                continue  # float corner enumeration cannot settle a knife edge
            atoms = [(a.relation, a.threshold)
                     for a in negate(prediction_formula(rm, expl.klass))]

            def oracle(rel, thr, fixed):
                atom = LinearAtom(w, b, rel, thr)
                return oracles.satisfiable_vertex_oracle(
                    atom, PartialAssignment(dict(fixed)), space)

            kept = oracles.minimal_explanation_via_vertices(
                oracle, w, b, atoms, x, space.lower, space.upper, order)
            assert expl.kept_indices == kept

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
            report = verify_explanation(rm, space, minimal_explanation(rm, space, x))
            assert report, report.violations
        batch = explain_batch(rm, space, X)
        for k in range(len(batch)):
            report = verify_explanation(rm, space, batch.explanation(k))
            assert report, report.violations

    def test_rows_outside_the_box_rejected(self, demo_reject, demo_space):
        with pytest.raises(DatasetError):
            explain_batch(demo_reject, demo_space, np.array([[0.5, 0.5], [1.2, 0.3]]))

    def test_empty_batch(self, demo_reject, demo_space):
        assert len(explain_batch(demo_reject, demo_space, np.zeros((0, 2)))) == 0


class TestVerifyExplanation:
    def test_accepts_generated_explanations(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        assert verify_explanation(band_reject, band_space, expl)

    def test_detects_missing_kept_feature(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        dropped = expl.kept[0][0]
        mutated = dataclasses.replace(
            expl,
            kept=expl.kept[1:],
            removed=tuple(sorted(expl.removed + (dropped,))),
            certificates={i: w for i, w in expl.certificates.items() if i != dropped},
        )
        report = verify_explanation(band_reject, band_space, mutated)
        assert not report
        assert any("sufficiency" in v for v in report.violations)

    def test_detects_redundant_feature(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        extra = expl.removed[0]
        mutated = dataclasses.replace(
            expl,
            kept=tuple(sorted(expl.kept + ((extra, float(BAND_X[extra])),))),
            removed=tuple(i for i in expl.removed if i != extra),
        )
        report = verify_explanation(band_reject, band_space, mutated)
        assert not report
        assert any("minimality" in v for v in report.violations)

    def test_detects_useless_certificate(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        bad = dict(expl.certificates)
        i = next(iter(bad))
        bad[i] = BAND_X.copy()  # the instance itself never flips the class
        mutated = dataclasses.replace(expl, certificates=bad)
        report = verify_explanation(band_reject, band_space, mutated)
        assert not report
        assert any("certificate" in v for v in report.violations)


    # the certificate contract: one certificate per kept feature and none for
    # a removed one, each inside the box, each leaving the other kept values
    # alone, and kept values that are the instance's

    def test_detects_missing_certificates(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        report = verify_explanation(band_reject, band_space,
                                    dataclasses.replace(expl, certificates={}))
        assert not report
        assert report.violations == tuple(
            f"kept feature {band_space.names[i]!r} has no certificate"
            for i in expl.kept_indices)

    def test_detects_one_certificate_of_five(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        first = expl.kept_indices[0]
        mutated = dataclasses.replace(expl, certificates={first: expl.certificates[first]})
        report = verify_explanation(band_reject, band_space, mutated)
        assert not report
        assert len(report.violations) == 4
        assert all(v.endswith("has no certificate") for v in report.violations)

    def test_detects_certificate_for_removed_feature(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        assert expl.removed == (2,)
        extra = dict(expl.certificates)
        extra[2] = expl.certificates[0]
        report = verify_explanation(band_reject, band_space,
                                    dataclasses.replace(expl, certificates=extra))
        assert not report
        assert "certificate for feature 'f3', which is not kept" in report.violations

    def test_detects_certificates_outside_box_moving_kept_features(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        far = 50.0 * np.sign(BAND_W)
        assert predict_with_reject(band_reject, far) != expl.klass
        mutated = dataclasses.replace(
            expl, certificates={i: far.copy() for i in expl.certificates})
        report = verify_explanation(band_reject, band_space, mutated)
        assert not report
        for i in expl.kept_indices:
            name = band_space.names[i]
            assert f"certificate for feature {name!r} lies outside the box" in report.violations
            assert f"certificate for feature {name!r} moves another kept feature" in report.violations

    def test_detects_kept_value_other_than_the_instance(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        kept = ((0, 0.26),) + expl.kept[1:]
        mutated = dataclasses.replace(expl, kept=kept)
        report = verify_explanation(band_reject, band_space, mutated)
        assert not report
        assert "kept value of feature 'f1' differs from the instance" in report.violations

    def test_bad_kept_index_and_domain_raise(self, band_reject, band_space):
        expl = minimal_explanation(band_reject, band_space, BAND_X)
        with pytest.raises(ValueError, match="fixed index 9 out of range for 6 features"):
            verify_explanation(band_reject, band_space,
                               dataclasses.replace(expl, kept=expl.kept + ((9, 0.5),)))
        with pytest.raises(ValueError, match="outside its domain"):
            verify_explanation(band_reject, band_space,
                               dataclasses.replace(expl, kept=((0, 1.5),) + expl.kept[1:]))
        with pytest.raises(ValueError, match="class must be"):
            verify_explanation(band_reject, band_space, dataclasses.replace(expl, klass=2))
        with pytest.raises(ValueError, match="certificate index out of range"):
            verify_explanation(band_reject, band_space, dataclasses.replace(
                expl, certificates={**expl.certificates, 9: BAND_X.copy()}))


def _mutations(expl):
    """The explanation and its broken variants: a kept feature dropped, a
    removed feature kept, a certificate replaced by the instance."""
    out = [expl]
    if expl.kept:
        dropped = expl.kept[0][0]
        out.append(dataclasses.replace(
            expl, kept=expl.kept[1:], removed=tuple(sorted(expl.removed + (dropped,))),
            certificates={i: p for i, p in expl.certificates.items() if i != dropped}))
        bad = dict(expl.certificates)
        bad[dropped] = expl.instance.copy()
        out.append(dataclasses.replace(expl, certificates=bad))
    if expl.removed:
        extra = expl.removed[0]
        out.append(dataclasses.replace(
            expl, kept=tuple(sorted(expl.kept + ((extra, float(expl.instance[extra])),))),
            removed=expl.removed[1:]))
    return out


def _verdicts(report):
    """Sufficiency, minimality and witness-class violations, in order."""
    return [v for v in report.violations
            if v.startswith(("sufficiency", "minimality")) or v.endswith("does not flip the class")]


class TestVerifyBatch:
    @given(batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_core_agrees_with_closed_form_reference(self, case):
        rm, space, X, order = case
        batch = explain_batch(rm, space, X, order)
        for k in range(len(batch)):
            for expl in _mutations(batch.explanation(k)):
                report = verify_explanation(rm, space, expl)
                reference = oracles.verify_explanation_closed_form(rm, space, expl)
                assert _verdicts(report) == _verdicts(reference)
                items = sorted(expl.certificates.items())
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
            one = verify_explanation(rm, space, batch.explanation(k))
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
            return predictions_with_reject(rm, points)

        monkeypatch.setattr(explainer, "VERIFY_CHUNK_CELLS", 3 * n * n)
        monkeypatch.setattr(explainer, "predictions_with_reject", recording)
        chunked = verify_batch(rm, space, batch)
        assert len(sizes) == 14 and max(sizes) <= 3 * n
        assert sum(sizes) == int((~batch.removed).sum())
        for a, b in zip(whole, chunked):
            assert (a.ok, a.violations) == (b.ok, b.violations)
            assert a.witness_classes.tolist() == b.witness_classes.tolist()


class TestFeatureFrequency:
    def test_counts_kept_features_per_class(self):
        removed = np.array([[False, True, True]] * 3)
        table = feature_frequency(np.array([1, 1, 1]), removed)
        assert table.counts[1].tolist() == [3, 0, 0]
        assert table.patterns == {1: 3}

    def test_empty_input_gives_empty_table(self):
        table = feature_frequency(np.zeros(0, dtype=int), np.zeros((0, 3), dtype=bool))
        assert table.counts == {} and table.patterns == {}

    def test_text_layout_aligns_columns(self):
        text = feature_frequency([1], [[False, True]]).format_text(["alpha", "beta"])
        lines = text.splitlines()
        assert len(lines) == 2
        assert "alpha" in lines[0] and "patterns" in lines[0]

    def test_largest_weight_feature_can_have_zero_count(self, demo_reject, demo_space):
        # |w2| > |w1|, yet in this corner of the box only f1 is ever needed:
        # with f2 <= 0.2 the value of f2 can never pin the class on its own
        instances = [np.array([f1, f2]) for f1 in (0.0, 0.02, 0.05)
                     for f2 in (0.0, 0.1, 0.2)]
        batch = explain_batch(demo_reject, demo_space, np.array(instances))
        table = feature_frequency(batch.classes, batch.removed)
        assert table.counts[1].tolist() == [9, 0]
        assert table.patterns[1] == 9
