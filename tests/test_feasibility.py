import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject.dataset import FeatureSpace

from conftest import DEMO_B, DEMO_W
from oracles import (
    MAX_ORACLE_FREE,
    LinearAtom,
    PartialAssignment,
    holds_at,
    linear_extrema,
    satisfiable,
    satisfiable_vertex_oracle,
)


@st.composite
def box_queries(draw, max_features=8):
    """Random atom + partial assignment + box, driven by a drawn seed."""
    n = draw(st.integers(min_value=1, max_value=max_features))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_fixed = draw(st.integers(min_value=0, max_value=n))
    relation = draw(st.sampled_from(("<", "<=", ">", ">=")))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-10.0, 10.0, n)
    bias = float(rng.uniform(-5.0, 5.0))
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    space = FeatureSpace([f"f{i}" for i in range(n)], lower, upper)
    fixed_idx = rng.choice(n, size=n_fixed, replace=False)
    fixed = {int(i): float(rng.uniform(lower[i], upper[i])) for i in fixed_idx}
    threshold = float(rng.uniform(-30.0, 30.0))
    atom = LinearAtom(weights, bias, relation, threshold)
    return atom, PartialAssignment(fixed), space


class TestLinearExtrema:
    def test_demo_model_f1_fixed(self, demo_space):
        pa = PartialAssignment({0: 0.0526})
        lo, hi = linear_extrema(DEMO_W, DEMO_B, pa, demo_space)
        # frozen from corner enumeration over f2 in {0, 1}
        assert lo == pytest.approx(0.00792, abs=1e-12)
        assert hi == pytest.approx(2.00792, abs=1e-12)

    def test_all_fixed_collapses_to_point_value(self, demo_space):
        pa = PartialAssignment.of_instance([0.0526, 0.3])
        lo, hi = linear_extrema(DEMO_W, DEMO_B, pa, demo_space)
        assert lo == hi == pytest.approx(0.60792, abs=1e-12)

    def test_zero_weights_give_bias_only(self, demo_space):
        lo, hi = linear_extrema(np.zeros(2), 0.05, PartialAssignment.empty(), demo_space)
        assert (lo, hi) == (0.05, 0.05)

    def test_fixed_value_outside_domain_rejected(self, demo_space):
        pa = PartialAssignment({0: 1.5})
        with pytest.raises(ValueError, match="outside its domain"):
            linear_extrema(DEMO_W, DEMO_B, pa, demo_space)

    def test_dimension_mismatch_rejected(self, demo_space):
        with pytest.raises(ValueError, match="features"):
            linear_extrema(np.ones(3), 0.0, PartialAssignment.empty(), demo_space)

    @given(box_queries())
    @settings(max_examples=200, deadline=None)
    def test_extrema_bound_every_corner(self, query):
        atom, pa, space = query
        lo, hi = linear_extrema(atom.weights, atom.bias, pa, space)
        free = [i for i in range(len(space)) if i not in pa.fixed]
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = np.array([
                pa.fixed.get(i, rng.uniform(space.lower[i], space.upper[i]))
                for i in range(len(space))
            ])
            value = float(atom.weights @ x + atom.bias)
            assert lo - 1e-9 <= value <= hi + 1e-9
        assert lo <= hi


class TestSatisfiable:
    def test_demo_f1_fixed_nonpositive_unsat(self, demo_space):
        atom = LinearAtom(DEMO_W, DEMO_B, "<=", 0.0)
        result = satisfiable(atom, PartialAssignment({0: 0.0526}), demo_space)
        assert not result
        assert result.witness is None

    def test_demo_unconstrained_sat_with_corner_witness(self, demo_space):
        atom = LinearAtom(DEMO_W, DEMO_B, "<=", 0.0)
        result = satisfiable(atom, PartialAssignment.empty(), demo_space)
        assert result
        assert result.witness.tolist() == [1.0, 0.0]
        assert DEMO_W @ result.witness + DEMO_B == pytest.approx(-0.75)

    def test_zero_atom_strict_is_unsat(self):
        space = FeatureSpace.unit(["f1"])
        atom = LinearAtom(np.zeros(1), 0.0, ">", 0.0)
        assert not satisfiable(atom, PartialAssignment.empty(), space)

    def test_knife_edge_flagged(self):
        space = FeatureSpace.unit(["f1"])
        atom = LinearAtom(np.ones(1), 0.0, "<=", 0.0)
        result = satisfiable(atom, PartialAssignment.empty(), space)
        assert result and result.knife_edge

    def test_invalid_relation_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            LinearAtom(np.ones(1), 0.0, "==", 0.0)

    def test_nonfinite_atom_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LinearAtom(np.array([np.inf]), 0.0, "<", 0.0)

    @given(box_queries())
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_vertex_oracle(self, query):
        atom, pa, space = query
        assert bool(satisfiable(atom, pa, space)) == satisfiable_vertex_oracle(atom, pa, space)

    @given(box_queries())
    @settings(max_examples=200, deadline=None)
    def test_witness_is_valid(self, query):
        atom, pa, space = query
        result = satisfiable(atom, pa, space)
        if result:
            w = result.witness
            assert space.rows_inside(w[None, :]).all()
            for i, v in pa.fixed.items():
                assert w[i] == v
            assert holds_at(atom, w)

    @given(box_queries())
    @settings(max_examples=200, deadline=None)
    def test_negation_duality(self, query):
        # a linear function on a nonempty box always attains some value,
        # so an atom or its negation must be satisfiable
        atom, pa, space = query
        assert satisfiable(atom, pa, space) or satisfiable(atom.negated(), pa, space)

    @given(box_queries(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_fixing_more_never_creates_sat(self, query, seed):
        atom, pa, space = query
        if satisfiable(atom, pa, space):
            return
        free = [i for i in range(len(space)) if i not in pa.fixed]
        if not free:
            return
        rng = np.random.default_rng(seed)
        i = int(rng.choice(free))
        extra = dict(pa.fixed)
        extra[i] = float(rng.uniform(space.lower[i], space.upper[i]))
        assert not satisfiable(atom, PartialAssignment(extra), space)


class TestVertexOracle:
    def test_no_free_coordinates_direct_evaluation(self, demo_space):
        atom = LinearAtom(DEMO_W, DEMO_B, ">", 0.0)
        pa = PartialAssignment.of_instance([0.0526, 0.3])
        assert satisfiable_vertex_oracle(atom, pa, demo_space)

    def test_too_many_free_coordinates_rejected(self):
        n = MAX_ORACLE_FREE + 1
        space = FeatureSpace.unit([f"f{i}" for i in range(n)])
        atom = LinearAtom(np.ones(n), 0.0, ">", 0.0)
        with pytest.raises(ValueError, match="free coordinates"):
            satisfiable_vertex_oracle(atom, PartialAssignment.empty(), space)
