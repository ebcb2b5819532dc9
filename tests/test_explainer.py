import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject.dataset import DatasetError, FeatureSpace
from svcreject.dataset import LabeledDataset
from svcreject.explainer import explain_batch, verify_batch
from svcreject.rejector import calibrate
from svcreject.trainer import LinearModel, decision_values
from svcreject import RejectModel

import oracles
from oracles import (LinearAtom, PartialAssignment, classify_one, negate, prediction_formula,
                     satisfiable)
from conftest import (
    BAND_B,
    BAND_T_MINUS,
    BAND_T_PLUS,
    BAND_W,
    BAND_X,
    DEMO_X,
    break_every_check,
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
        assert classify_one(demo_reject, result.witness) == -1

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
        klass = classify_one(rm, x)
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
        assert classify_one(demo_reject, witness) == -1

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
        # int() would read [0.9, 1.2] as [0, 1] and [True, False] as [1, 0];
        # explain_batch checks an order as verify_batch checks a position
        for order in ([0, 0], [1, 1, 0], [0.9, 1.2], [True, False], [0], [0, 2]):
            with pytest.raises(ValueError, match="order must be a permutation"):
                explain_one(demo_reject, demo_space, DEMO_X, order=order)

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
        _, _, violations = verify_batch(rm, space, explain_one(rm, space, x, order=order))
        assert violations == {}

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
        witness_classes, _, violations = verify_batch(rm, space, batch)
        assert violations == {}
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
            assert witness_classes[k][list(kept)].tolist() == [
                classify_one(rm, expected[i]) for i in kept]
            assert batch.queries[k] == queries <= 2 * len(space)

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
            _, _, violations = verify_batch(rm, space, explain_one(rm, space, x))
            assert violations == {}
        _, _, violations = verify_batch(rm, space, explain_batch(rm, space, X))
        assert violations == {}

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
        witness_classes, knife_edges, violations = verify_batch(rm, space, batch)
        assert (witness_classes.shape, knife_edges.tolist(), violations) == ((2, 0), [0, 0], {})


class TestVerifyExplanation:
    """The checks of ``verify_batch`` on one-row batches, each with one part
    of the explanation broken."""

    @pytest.fixture
    def batch(self, band_reject, band_space):
        batch = explain_one(band_reject, band_space, BAND_X)
        assert kept_of(batch) == (0, 1, 3, 4, 5)
        return batch

    def test_accepts_generated_explanations(self, band_reject, band_space, batch):
        _, _, violations = verify_batch(band_reject, band_space, batch)
        assert violations == {}

    def test_detects_missing_kept_feature(self, band_reject, band_space, batch):
        removed = batch.removed.copy()
        removed[0, 0] = True
        _, _, violations = verify_batch(band_reject, band_space,
                                        dataclasses.replace(batch, removed=removed))
        assert any("sufficiency" in v for v in violations[0])

    def test_detects_redundant_feature(self, band_reject, band_space, batch):
        removed = batch.removed.copy()
        removed[0, 2] = False
        _, _, violations = verify_batch(band_reject, band_space,
                                        dataclasses.replace(batch, removed=removed))
        assert any("minimality" in v for v in violations[0])

    def test_detects_useless_certificate(self, band_reject, band_space, batch):
        # f1's witness moved to the other extremum stays in the reject band
        at_max = batch.at_max.copy()
        at_max[0, 0] = not at_max[0, 0]
        _, _, violations = verify_batch(band_reject, band_space,
                                        dataclasses.replace(batch, at_max=at_max))
        assert violations == {0: ["certificate for feature 'f1' does not flip the class"]}

    # every kept feature has one certificate by construction, and the freeing
    # rule moves no other kept feature; what remains to check is that the
    # instance, and so every certificate, lies in the box and that the
    # elimination order is one

    def test_detects_instance_outside_the_box(self, band_reject, band_space, batch):
        instances = batch.instances.copy()
        instances[0, 0] = 1.5
        _, _, violations = verify_batch(band_reject, band_space,
                                        dataclasses.replace(batch, instances=instances))
        assert violations[0][0] == "instance lies outside the box"

    @pytest.mark.parametrize("position", [[0, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5, 6],
                                          [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]],
                             ids=["repeated", "short", "shifted", "float"])
    def test_non_permutation_position_raises(self, band_reject, band_space, batch, position):
        with pytest.raises(ValueError, match="permutation"):
            verify_batch(band_reject, band_space,
                         dataclasses.replace(batch, position=np.array(position)))


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


def _verdicts(violations):
    """Sufficiency, minimality and witness-class violations, in order."""
    return [v for v in violations
            if v.startswith(("sufficiency", "minimality")) or v.endswith("does not flip the class")]


class TestVerifyBatch:
    @given(batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_core_agrees_with_closed_form_reference(self, case):
        rm, space, X, order = case
        for batch in _mutations(explain_batch(rm, space, X, order)):
            witness_classes, _, violations = verify_batch(rm, space, batch)
            for k in range(len(batch)):
                row = oracles.ExplainedRow(X[k], int(batch.classes[k]), ~batch.removed[k],
                                           certificates(batch, k))
                reference = oracles.verify_explanation_closed_form(rm, space, row)
                assert _verdicts(violations.get(k, [])) == _verdicts(reference)
                items = sorted(row.certificates.items())
                assert witness_classes[k][row.kept].tolist() == [
                    classify_one(rm, p) for _, p in items]

    @given(batch_cases())
    @settings(max_examples=150, deadline=None)
    def test_batch_reports_equal_one_row_reports(self, case):
        rm, space, X, order = case
        batch = explain_batch(rm, space, X, order)
        witness_classes, _, violations = verify_batch(rm, space, batch)
        assert witness_classes.shape == batch.removed.shape and violations == {}
        for k in range(len(batch)):
            one, _, one_violations = verify_batch(
                rm, space, explain_batch(rm, space, X[k:k + 1], order))
            assert one_violations == {}
            assert witness_classes[k].tolist() == one[0].tolist()

    def test_detects_broken_rows_only(self, band_reject, band_space):
        X = np.vstack([BAND_X, BAND_X, BAND_X])
        batch = explain_batch(band_reject, band_space, X)
        removed = batch.removed.copy()
        removed[1, 0] = True    # row 1 loses a kept feature
        removed[2, 2] = False   # row 2 keeps the droppable f3
        _, _, violations = verify_batch(band_reject, band_space,
                                        dataclasses.replace(batch, removed=removed))
        assert sorted(violations) == [1, 2]
        assert any("sufficiency" in v for v in violations[1])
        assert "minimality: feature 'f3' is droppable" in violations[2]

    def test_messages_keep_their_order_across_checks(self, band_reject, band_space):
        # box, sufficiency, minimality by ascending feature, then certificates
        # by ascending feature; a passing row has no key
        batch = explain_batch(band_reject, band_space, np.vstack([BAND_X, BAND_X]))
        _, _, violations = verify_batch(band_reject, band_space, break_every_check(batch, 1))
        assert violations == {1: [
            "instance lies outside the box",
            "sufficiency: kept features do not entail the class",
            "minimality: feature 'f1' is droppable",
            "minimality: feature 'f4' is droppable",
            "certificate for feature 'f1' does not flip the class",
            "certificate for feature 'f2' does not flip the class",
            "certificate for feature 'f4' does not flip the class",
        ]}

    @staticmethod
    def traced_verify(rows, n):
        """A random model over n features explained on ``rows`` random rows:
        the batch and verify_batch's traced peak in bytes, every row
        checked to pass."""
        rng = np.random.default_rng(0)
        X = rng.random((rows, n))
        w = rng.normal(size=n) / np.sqrt(n)
        d = X @ w
        t_minus, t_plus = np.quantile(d - d.mean(), [0.3, 0.7])
        rm = RejectModel(LinearModel(w, -float(d.mean())), min(float(t_minus), 0.0),
                         max(float(t_plus), 0.0), 0.24)
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        batch = explain_batch(rm, space, X)
        tracemalloc.start()
        try:
            _, _, violations = verify_batch(rm, space, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert violations == {}
        return batch, peak

    def test_verify_allocates_far_less_than_one_witness_matrix(self):
        # over 2,000 features one row's witness points would take
        # |kept| * n * 8 bytes, 32 MB when every feature is kept
        n = 2000
        batch, peak = self.traced_verify(5, n)
        kept = int((~batch.removed).sum(axis=1).max())
        assert kept > n // 2
        assert peak < kept * n * 8 // 10

    def test_verify_of_a_tall_batch_holds_few_tables(self):
        # many rows, few features: the peak is counted in (rows, n + 1)
        # float tables, of which verify_batch frees each once read
        rows, n = 5000, 30
        _, peak = self.traced_verify(rows, n)
        assert peak < 8 * rows * (n + 1) * 8


@st.composite
def tie_cases(draw):
    """Integer weights in -3..3, instances on a quarter grid of the unit box,
    an integer bias and integer thresholds.  Every decision value and box
    extremum is exact in float and many land exactly on a threshold, where
    only the kernel's exact fallback decides."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=5))
    w = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
    X = draw(st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    bias = draw(st.integers(min_value=-3, max_value=3))
    t_minus = -draw(st.integers(min_value=0, max_value=2))
    t_plus = draw(st.integers(min_value=0, max_value=2))
    order = draw(st.permutations(range(n)))
    rm = RejectModel(LinearModel(np.array(w, dtype=float), float(bias)), float(t_minus),
                     float(t_plus), 0.24)
    space = FeatureSpace.unit([f"f{i}" for i in range(n)])
    return rm, space, np.array(X, dtype=float) / 4.0, list(order)


def tied_comparisons(rm, space, x, kept, points) -> int:
    """How many of the verifier's threshold comparisons of one row tie: the
    exact extrema with the kept values pinned, the same with each kept
    feature freed, and the witness points' values, each compared with both
    thresholds.  On a quarter grid with integer weights every value is a
    multiple of 1/4, so a comparison is a knife edge exactly when it ties."""
    w, b = rm.model.weights, rm.model.bias
    values = list(oracles.linear_extrema(
        w, b, PartialAssignment({i: float(x[i]) for i in kept}), space))
    for i in kept:
        values += oracles.linear_extrema(
            w, b, PartialAssignment({j: float(x[j]) for j in kept if j != i}), space)
    values += [math.fsum([*(w * point).tolist(), b]) for point in points]
    return sum((v == rm.t_plus) + (v == rm.t_minus) for v in values)


class TestTieHeavy:
    def test_knife_edges_verify_through_the_exact_fallback(self):
        knife_edges = {"explain": 0, "verify": 0}

        @given(tie_cases())
        @settings(max_examples=150, deadline=None)
        def check(case):
            rm, space, X, order = case
            batch = explain_batch(rm, space, X, order)
            witness_classes, verify_knives, violations = verify_batch(rm, space, batch)
            assert violations == {}
            for k in range(len(batch)):
                klass, kept, _, _, _ = oracles.minimal_explanation_by_queries(
                    rm, space, X[k], order)
                assert (int(batch.classes[k]), kept_of(batch, k)) == (klass, kept)
                points = [point for _, point in sorted(certificates(batch, k).items())]
                assert witness_classes[k][list(kept)].tolist() == [
                    classify_one(rm, point) for point in points]
                assert verify_knives[k] == tied_comparisons(rm, space, X[k], kept, points)
            knife_edges["explain"] += int(batch.knife_edges.sum())
            knife_edges["verify"] += int(verify_knives.sum())

        check()
        assert knife_edges["explain"] > 0 and knife_edges["verify"] > 0, knife_edges
