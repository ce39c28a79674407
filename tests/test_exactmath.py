"""Exact LP, canonicalization, redundancy and the Fourier-Motzkin oracle."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitope.exactmath import (
    EQ,
    LE,
    AffineIneq,
    DimensionError,
    HPolyhedron,
    RatVec,
    cone_hull,
    eliminate_variables,
    fm_feasible,
    fm_feasible_with_witness,
    implies,
    ineq_eq,
    ineq_ge,
    ineq_le,
    lp_feasible,
    lp_max,
    lp_witness,
    poly_equal,
    primitive,
    rat_str,
    remove_redundant,
    row_reduce,
)


def sysd(dim, *rows):
    return HPolyhedron(dim, list(rows))


class TestRatVec:
    def test_arithmetic(self):
        v = RatVec([1, F(1, 2)])
        w = RatVec([2, -1])
        assert v + w == RatVec([3, F(-1, 2)])
        assert v - w == RatVec([-1, F(3, 2)])
        assert -v == RatVec([-1, F(-1, 2)])
        assert v.dot(w) == F(3, 2)
        assert w.scale(F(1, 2)) == RatVec([1, F(-1, 2)])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            RatVec([1]).dot(RatVec([1, 2]))

    def test_content(self):
        assert RatVec([4, -6, 2]).content_gcd() == 2
        assert RatVec([0, 0]).content_gcd() == 0


class TestCanonical:
    def test_scaling_invariance(self):
        row = ineq_le([F(2, 3), F(-4, 3)], F(2, 3))
        assert row.canonical() == ineq_le([1, -2], 1).canonical()

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.integers(-6, 6),
        st.fractions(min_value=F(1, 5), max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_positive_scale_identity(self, coeffs, bound, c):
        row = ineq_le(coeffs, bound)
        scaled = AffineIneq(row.normal.scale(c), row.bound * c, row.kind)
        assert row.canonical() == scaled.canonical()

    def test_equality_sign_normalization(self):
        a = ineq_eq([-2, 2], -4).canonical()
        b = ineq_eq([1, -1], 2).canonical()
        assert a == b
        assert next(c for c in a.normal if c != 0) > 0

    def test_canonical_row_is_returned_as_itself(self):
        row = ineq_le([F(2, 3), F(-4, 3)], F(2, 3)).canonical()
        assert row.canonical() is row
        eq = ineq_eq([-2, 2], -4).canonical()
        assert eq.canonical() is eq
        assert ineq_eq([-1, 1], 2).canonical() == ineq_eq([1, -1], -2)
        assert HPolyhedron(2, [row]).ineqs[0] is row

    def test_trivial_and_infeasible_markers(self):
        assert ineq_le([0, 0], 3).canonical().is_trivial()
        assert ineq_le([0, 0], -3).canonical().is_infeasible_marker()
        assert ineq_eq([0], 0).canonical().is_trivial()
        assert ineq_eq([0], 5).canonical().is_infeasible_marker()


class TestLP:
    def test_empty_interval(self):
        assert not lp_feasible(sysd(1, ineq_le([1], 1), ineq_le([-1], -2)))

    def test_unit_interval(self):
        s = sysd(1, ineq_le([1], 1), ineq_le([-1], 0))
        assert lp_feasible(s)
        assert s.contains(lp_witness(s))

    def test_horn_example_system(self):
        # the rank-2 tensor-cone system with trace equality is feasible
        rows = [
            ineq_ge([0], 1 + 1 - 2),   # placeholders replaced below
        ]
        # gamma = (g1, g2): mu = (1,0), lam* = (0,-1); need g dominated rows
        s = sysd(
            2,
            ineq_eq([1, 1], 1 + 0 + 0 - 1),  # trace: sum g = 0
            ineq_le([1, 0], 1 + 0),          # g1 <= mu1 + lam*_1
            ineq_le([0, 1], 0 + 0),          # g2 <= mu2 + lam*_1
            ineq_le([0, 1], 1 - 1),          # g2 <= mu1 + lam*_2
            ineq_le([-1, 1], 0),
            ineq_le([0, -1], 0),
        )
        assert lp_feasible(s)

    def test_optimization_and_unboundedness(self):
        s = sysd(2, ineq_le([1, 1], 4), ineq_ge([1, 0], 0), ineq_ge([0, 1], 0))
        status, val, w = lp_max(s, [1, 2])
        assert status == "optimal" and val == 8 and s.contains(w)
        assert lp_max(sysd(1, ineq_ge([1], 0)), [1])[0] == "unbounded"

    def test_equalities_by_substitution(self):
        s = sysd(3, ineq_eq([1, 1, 1], 0), ineq_ge([1, 0, 0], 1), ineq_ge([0, 1, 0], 1))
        status, val, w = lp_max(s, [0, 0, 1])
        assert status == "optimal" and val == -2
        assert s.contains(w)

    def test_inconsistent_equalities(self):
        s = sysd(2, ineq_eq([1, 1], 0), ineq_eq([2, 2], 1))
        assert not lp_feasible(s)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            HPolyhedron(2, [ineq_le([1], 0)])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_objective_reduction_matches_split_equalities(self, data):
        # lp_max reduces the objective along with the equality substitution;
        # each equality written as two opposite <= rows skips substitution,
        # so both forms must reach the same status and optimum.
        dim = data.draw(st.integers(1, 4))
        nrows = data.draw(st.integers(1, 7))
        rows = []
        for i in range(nrows):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            bound = data.draw(st.integers(-4, 4))
            kind = EQ if i == 0 else data.draw(st.sampled_from([LE, LE, EQ]))
            rows.append(AffineIneq(RatVec(coeffs), bound, kind))
        objective = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        split = []
        for r in rows:
            if r.kind == EQ:
                split += [AffineIneq(r.normal, r.bound), AffineIneq(-r.normal, -r.bound)]
            else:
                split.append(r)
        s = HPolyhedron(dim, rows)
        status, val, witness = lp_max(s, objective)
        assert (status, val) == lp_max(HPolyhedron(dim, split), objective)[:2]
        if status != "infeasible":
            assert s.contains(witness)
            # The integer tableau hands back exact Fractions, never ints or
            # floats (integer true division would silently give floats).
            assert all(isinstance(c, F) for c in witness)
            for point in (lp_witness(s), lp_max(HPolyhedron(dim, split), objective)[2]):
                assert all(isinstance(c, F) for c in point)
        if status == "optimal":
            assert isinstance(val, F)


class TestElimination:
    def test_row_reduce_pivot_rule(self):
        # Rows pivot in turn on their first nonzero column of `order`; the
        # bound column outside `order` is carried along, `others` reduced.
        rows = [[F(0), F(2), F(2), F(4)], [F(1), F(1), F(0), F(1)], [F(1), F(0), F(-1), F(-1)]]
        others = [[F(1), F(1), F(1), F(0)]]
        pivots = row_reduce(rows, others, range(3))
        assert pivots == [(0, 1), (1, 0)]
        assert rows == [[0, 1, 1, 2], [1, 0, -1, -1], [0, 0, 0, 0]]
        assert others == [[0, 0, 1, -1]]

    def test_row_reduce_respects_order(self):
        rows = [[F(1), F(2), F(3)]]
        assert row_reduce(rows, [], [1, 0]) == [(0, 1)]
        assert rows == [[F(1, 2), 1, F(3, 2)]]

    def test_primitive(self):
        assert primitive([F(1, 2), F(-1, 3), F(0)]) == [3, -2, 0]
        assert primitive([F(4), F(-6)]) == [2, -3]
        assert primitive([F(0), F(0)]) == [0, 0]
        assert all(isinstance(a, F) for a in primitive([F(2, 3), F(4)]))


class TestRedundancy:
    def test_simple_drop(self):
        s = sysd(1, ineq_le([1], 1), ineq_le([1], 2))
        assert remove_redundant(s) == sysd(1, ineq_le([1], 1))

    def test_derived_example(self):
        s = sysd(2, ineq_le([1, 1], 1), ineq_le([1, 0], 1), ineq_le([0, 1], 1),
                 ineq_le([1, 1], 3))
        r = remove_redundant(s)
        assert ineq_le([1, 1], 3).canonical() not in r.ineqs
        # each survivor is non-redundant: negating it stays feasible
        for row in r.ineqs:
            rest = HPolyhedron(2, [x for x in r.ineqs if x != row])
            assert not implies(rest, row)

    def test_infeasible_collapses_to_marker(self):
        s = sysd(1, ineq_le([1], 1), ineq_le([-1], -2))
        assert remove_redundant(s) == HPolyhedron.empty(1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_equal(self, data):
        dim = data.draw(st.integers(1, 3))
        nrows = data.draw(st.integers(1, 6))
        rows = []
        for _ in range(nrows):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            bound = data.draw(st.integers(-4, 4))
            kind = data.draw(st.sampled_from([LE, LE, LE, EQ]))
            rows.append(AffineIneq(RatVec(coeffs), bound, kind))
        s = HPolyhedron(dim, rows)
        r = remove_redundant(s)
        assert remove_redundant(r) == r
        assert poly_equal(s, r)


    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, data):
        # The reference is the loop that rebuilt every candidate subsystem and
        # decided each implication with its own lp_max from scratch.
        dim = data.draw(st.integers(1, 4))
        rows = []
        for _ in range(data.draw(st.integers(1, 8))):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            if rows and data.draw(st.booleans()):
                coeffs = list(data.draw(st.sampled_from(rows)).normal)  # a repeated normal
            kind = data.draw(st.sampled_from([LE, LE, LE, EQ]))
            rows.append(AffineIneq(RatVec(coeffs), data.draw(st.integers(-4, 4)), kind))
        s = HPolyhedron(dim, rows)
        assert remove_redundant(s).ineqs == _reference_remove_redundant(s).ineqs
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        other = AffineIneq(RatVec(coeffs), data.draw(st.integers(-4, 4)),
                           data.draw(st.sampled_from([LE, EQ])))
        assert implies(s, other) == _reference_implies(s, other)


def _reference_implies(sys, row):
    status, val, _ = lp_max(sys, row.normal)
    if status == "infeasible":
        return True
    if status == "unbounded":
        return False
    if row.kind == LE:
        return val <= row.bound
    if val != row.bound:
        return False
    status2, val2, _ = lp_max(sys, -row.normal)
    return status2 == "optimal" and val2 == -row.bound


def _reference_remove_redundant(sys):
    if not lp_feasible(sys):
        return HPolyhedron.empty(sys.dim)
    tightest = {}
    for row in sys.ineqs:
        if row.kind == LE:
            cur = tightest.get(row.normal.entries)
            if cur is None or row.bound < cur:
                tightest[row.normal.entries] = row.bound
    rows = [r for r in sys.ineqs if r.kind != LE or r.bound == tightest[r.normal.entries]]
    kept = list(rows)
    for row in rows:
        rest = [r for r in kept if r is not row]
        if _reference_implies(HPolyhedron(sys.dim, rest), row):
            kept = rest
    return HPolyhedron(sys.dim, kept)


class TestPolyEqual:
    def test_reflexive(self):
        s = sysd(2, ineq_le([1, 1], 1))
        assert poly_equal(s, s)

    def test_scaling(self):
        assert poly_equal(sysd(1, ineq_le([1], 1)), sysd(1, ineq_le([2], 2)))

    def test_extra_constraint(self):
        assert not poly_equal(
            sysd(2, ineq_le([1, 0], 1)),
            sysd(2, ineq_le([1, 0], 1), ineq_le([0, 1], 0)),
        )

    def test_both_empty(self):
        assert poly_equal(HPolyhedron.empty(2),
                          sysd(2, ineq_le([1, 0], 0), ineq_ge([1, 0], 1)))


class TestFourierMotzkin:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_simplex(self, data):
        dim = data.draw(st.integers(1, 4))
        nrows = data.draw(st.integers(1, 7))
        rows = []
        for _ in range(nrows):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            bound = data.draw(st.integers(-4, 4))
            kind = data.draw(st.sampled_from([LE, LE, LE, EQ]))
            rows.append(AffineIneq(RatVec(coeffs), bound, kind))
        s = HPolyhedron(dim, rows)
        feasible, witness = fm_feasible_with_witness(s)
        assert feasible == lp_feasible(s)
        if feasible:
            assert s.contains(witness)

    def test_projection(self):
        # project {x = y + z, 0 <= z <= 1, y >= 0} onto (x, y)
        s = sysd(3, ineq_eq([1, -1, -1], 0), ineq_ge([0, 0, 1], 0),
                 ineq_le([0, 0, 1], 1), ineq_ge([0, 1, 0], 0))
        p = eliminate_variables(s, 2)
        expect = sysd(2, ineq_ge([0, 1], 0), ineq_ge([1, -1], 0), ineq_le([1, -1], 1))
        assert poly_equal(p, expect)

    def test_cone_hull(self):
        cone = cone_hull([RatVec([2, 0]), RatVec([1, 1]), RatVec([0, 2])], 2)
        assert poly_equal(cone, sysd(2, ineq_ge([1, 0], 0), ineq_ge([0, 1], 0)))
        origin = cone_hull([], 2)
        assert origin.contains(RatVec([0, 0])) and not origin.contains(RatVec([1, 0]))


class TestJson:
    def test_round_trip(self):
        s = sysd(3, ineq_eq([1, 1, 1], 0), ineq_le([F(1, 2), 0, -1], F(3, 7)))
        blob = json.dumps(s.to_json_obj())
        assert HPolyhedron.from_json_obj(json.loads(blob)) == s

    @given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_rat_str_round_trip(self, vals):
        for v in vals:
            assert F(rat_str(F(v))) == F(v)

    def test_wire_shape(self):
        # rows are stored canonically: primitive integer coefficients
        s = sysd(2, ineq_le([1, -2], F(1, 2)))
        obj = s.to_json_obj()
        assert obj["dim"] == 2
        assert obj["ineqs"][0] == {"a": ["2", "-4"], "b": "1", "eq": False}
