"""Exact LP, the canonical form rows are built in, redundancy, and the
double description method (tests/reference.py) with the feasibility oracle
built on it, independent of the simplex."""

import json
import random
from fractions import Fraction as F
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitope import admissible, polytope
from orbitope.admissible import enumerate_admissible
from orbitope.certificates import CertificateStore, Farkas, Ray, Witness
from orbitope.cones import cone_rays
from orbitope.exactmath import (
    EQ,
    LE,
    AffineIneq,
    DimensionError,
    DomainError,
    HPolyhedron,
    RatVec,
    _canonical_system,
    implies,
    implies_all,
    ineq_eq,
    ineq_ge,
    ineq_le,
    lp_feasible,
    lp_witness,
    poly_equal,
    rat_str,
    remove_redundant,
    row_reduce,
)
from orbitope.rootdata import GroupFamily, build, in_hol_chamber
from reference import canonical, cone_hull, is_infeasible_marker, lp_max, primitive


def sysd(dim, *rows):
    return HPolyhedron(dim, list(rows))


class TestRatVec:
    def test_arithmetic(self):
        # A point's one operation is the scalar product.
        v = RatVec([1, F(1, 2)])
        w = RatVec([2, -1])
        assert v.dot(w) == F(3, 2)
        assert v.dot(RatVec([F(1, 3), F(2, 3)])) == F(2, 3)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            RatVec([1]).dot(RatVec([1, 2]))


class TestCanonical:
    """Rows are canonical as built: a positive rational scaling makes the
    normal coprime integers, equalities lead with a positive entry, and a
    zero normal leaves one of three degenerate rows."""

    def test_scaling_invariance(self):
        row = ineq_le([F(2, 3), F(-4, 3)], F(2, 3))
        assert row == ineq_le([1, -2], 1)
        assert row.normal == (1, -2) and row.bound == 1

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.integers(-6, 6),
        st.fractions(min_value=F(1, 5), max_value=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_positive_scale_identity(self, coeffs, bound, c):
        row = ineq_le(coeffs, bound)
        assert row == AffineIneq([c * a for a in coeffs], bound * c, LE)
        assert all(type(a) is int for a in row.normal) and type(row.bound) is F
        assert gcd(*row.normal) == (1 if any(coeffs) else 0)

    def test_equality_sign_normalization(self):
        a = ineq_eq([-2, 2], -4)
        b = ineq_eq([1, -1], 2)
        assert a == b
        assert next(c for c in a.normal if c != 0) > 0
        assert ineq_eq([-1, 1], 2) == ineq_eq([1, -1], -2)
        assert ineq_le([-1, 1], 2) != ineq_le([1, -1], -2)

    def test_canonical_row_is_returned_as_itself(self):
        row = ineq_le([F(2, 3), F(-4, 3)], F(2, 3))
        again = AffineIneq(row.normal, row.bound, row.kind)
        assert again == row
        assert HPolyhedron(2, [row, again]).ineqs[0] is row
        assert len(HPolyhedron(2, [row, again]).ineqs) == 1

    def test_trivial_and_infeasible_markers(self):
        assert ineq_le([0, 0], 3).is_trivial()
        assert ineq_le([0, 0], -3) == HPolyhedron.empty(2).ineqs[0]
        assert is_infeasible_marker(ineq_le([0, 0], -3))
        assert ineq_eq([0], 0).is_trivial() and ineq_eq([0], 0).kind == EQ
        assert ineq_eq([0], 5) == HPolyhedron.empty(1).ineqs[0]
        assert is_infeasible_marker(ineq_eq([0], 5))

    @given(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                 min_size=1, max_size=4),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        st.sampled_from([LE, EQ]),
    )
    @settings(max_examples=300, deadline=None)
    def test_integer_row_is_the_reference_canonical_row(self, coeffs, bound, kind):
        # The printed form, the row times its bound's denominator, is the
        # whole row scaled to coprime integers.
        row = AffineIneq(coeffs, bound, kind)
        assert (*row.integer_row(), row.kind) == canonical(coeffs, bound, kind)


class TestLP:
    def test_empty_interval(self):
        assert not lp_feasible(sysd(1, ineq_le([1], 1), ineq_le([-1], -2)))

    def test_unit_interval(self):
        s = sysd(1, ineq_le([1], 1), ineq_le([-1], 0))
        assert lp_feasible(s)
        assert s.contains(lp_witness(s))

    def test_phase_one_runs_on_integer_rows(self):
        # Phase 1 weighs each row by its scale, so the witness depends on
        # it: with the rows at their normals' scale (6x + 6y - 3z <= -3 as
        # 2x + 2y - z <= -1, ...) it is (-41/33, -37/66, -2/11).
        s = sysd(3, ineq_le([-1, 4, 0], -1), ineq_le([2, -2, -2], -1), ineq_le([1, 2, 9], -4),
                 ineq_le([6, 6, -3], -3), ineq_le([-1, 9, -3], F(-3, 2)), ineq_le([9, 2, 6], -3))
        assert lp_witness(s) == RatVec([-3, -1, F(-3, 2)])

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
        # Equalities that fix every variable leave the LP no free variable.
        fixed = sysd(2, ineq_eq([1, 1], 1), ineq_eq([1, -1], 0), ineq_le([1, 1], 5),
                     ineq_ge([0, 1], 0))
        point = RatVec([F(1, 2), F(1, 2)])
        assert lp_max(fixed, [1, 2]) == ("optimal", F(3, 2), point)
        assert lp_witness(fixed) == point
        assert implies(fixed, ineq_le([1, 0], F(1, 2)))

    def test_inconsistent_equalities(self):
        s = sysd(2, ineq_eq([1, 1], 0), ineq_eq([2, 2], 1))
        assert not lp_feasible(s)
        # Consistent equalities that fix every variable, and a <= row the
        # point they fix violates.
        s = sysd(2, ineq_eq([1, 1], 1), ineq_eq([1, -1], 0), ineq_le([1, 0], 0))
        assert not lp_feasible(s)
        assert lp_max(s, [1, 0]) == ("infeasible", None, None)

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
                split += [AffineIneq(r.normal, r.bound),
                          AffineIneq([-a for a in r.normal], -r.bound)]
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
        # bound column outside `order` is carried along.
        rows = [[F(0), F(2), F(2), F(4)], [F(1), F(1), F(0), F(1)], [F(1), F(0), F(-1), F(-1)]]
        ints, dens, pivots = row_reduce(rows, range(3))
        assert pivots == [(0, 1), (1, 0)]
        assert ints == [[0, 1, 1, 2], [1, 0, -1, -1], [0, 0, 0, 0]]
        assert dens == [1, 1, 1]

    def test_row_reduce_respects_order(self):
        rows = [[F(1), F(2), F(3)]]
        assert row_reduce(rows, [1, 0]) == ([[1, 2, 3]], [2], [(0, 1)])
        assert rows == [[1, 2, 3]]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_reduce_matches_fraction_gauss_jordan(self, data):
        ncols = data.draw(st.integers(1, 5))
        entry = st.integers(-4, 4) | st.builds(F, st.integers(-6, 6), st.integers(1, 4))
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(row, max_size=4))
        order = data.draw(st.permutations(range(ncols)))[: data.draw(st.integers(0, ncols))]
        given_rows = [list(r) for r in rows]
        ints, dens, pivots = row_reduce(rows, order)
        want, want_pivots = _gauss_jordan(rows, order)
        assert rows == given_rows
        assert pivots == want_pivots
        for k, (a, d) in enumerate(zip(ints, dens)):
            assert all(type(c) is int for c in a) and type(d) is int and d > 0
            assert gcd(d, *a) == 1
            assert [F(c, d) for c in a] == want[k]
        assert all(ints[i][col] == dens[i] for i, col in pivots)

    def test_primitive(self):
        assert primitive([F(1, 2), F(-1, 3), F(0)]) == [3, -2, 0]
        assert primitive([F(4), F(-6)]) == [2, -3]
        assert primitive([F(0), F(0)]) == [0, 0]
        assert all(isinstance(a, F) for a in primitive([F(2, 3), F(4)]))


def _gauss_jordan(rows, order) -> tuple:
    """(rows, pivots) of Gauss-Jordan over Fractions, each row in turn
    pivoting on its first nonzero column of `order`."""
    m = [[F(a) for a in row] for row in rows]
    pivots = []
    for i in range(len(m)):
        col = next((j for j in order if m[i][j]), None)
        if col is None:
            continue
        m[i] = [a / m[i][col] for a in m[i]]
        for k in range(len(m)):
            f = m[k][col]
            if k != i and f:
                m[k] = [a - f * b for a, b in zip(m[k], m[i])]
        pivots.append((i, col))
    return m, pivots


class TestRedundancy:
    def test_simple_drop(self):
        s = sysd(1, ineq_le([1], 1), ineq_le([1], 2))
        assert remove_redundant(s) == sysd(1, ineq_le([1], 1))

    def test_derived_example(self):
        s = sysd(2, ineq_le([1, 1], 1), ineq_le([1, 0], 1), ineq_le([0, 1], 1),
                 ineq_le([1, 1], 3))
        r = remove_redundant(s)
        assert ineq_le([1, 1], 3) not in r.ineqs
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

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_store_and_known_point_change_nothing(self, data):
        # A family of systems sharing normals (some repeated, some multiples
        # of others) with bounds drawn around a point, which is passed as
        # the known point; now and then a row is shifted past the point, so
        # the point violates it and the member may be infeasible.  One store
        # serves the whole family.
        dim = data.draw(st.integers(1, 4))
        shapes = []
        for _ in range(data.draw(st.integers(1, 7))):
            if shapes and data.draw(st.booleans()):
                coeffs = [data.draw(st.sampled_from([1, 2])) * c
                          for c in data.draw(st.sampled_from(shapes))[0]]
            else:
                coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            shapes.append((coeffs, data.draw(st.sampled_from([LE, LE, LE, EQ]))))
        store = CertificateStore()
        for _ in range(data.draw(st.integers(2, 6))):
            point = [F(data.draw(st.integers(-6, 6)), data.draw(st.sampled_from([1, 2])))
                     for _ in range(dim)]
            rows = []
            for coeffs, kind in shapes:
                slack = 0 if kind == EQ else data.draw(st.integers(0, 3))
                slack -= data.draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, 3]))
                rows.append(AffineIneq(RatVec(coeffs), sum(a * x for a, x in zip(coeffs, point))
                                       + slack, kind))
            s = HPolyhedron(dim, rows)
            want = _reference_remove_redundant(s).ineqs
            assert remove_redundant(s).ineqs == want
            assert remove_redundant(s, RatVec(point), store).ineqs == want

    # The groups of the assemble-mix benchmark workload.
    STREAM_GROUPS = ("sp:n=4", "su:p=4,q=1", "su:p=2,q=2", "so_star:n=4", "su:p=3,q=2", "sp:n=5")

    @pytest.mark.parametrize("spec", STREAM_GROUPS)
    def test_warm_store_matches_fresh_and_every_certificate_checks(self, spec, monkeypatch):
        # 200 Lambdas sampled as the benchmark samples them.  Every request
        # goes through assemble, so the group's store warms up; the same
        # system with a fresh store must give the same rows and kept flags,
        # and every certificate the stores applied must check.
        applied = []
        for cls in (Farkas, Witness, Ray):
            monkeypatch.setattr(cls, "decide", _recording(cls.decide, applied))
        # The admissible set does not depend on Lambda; one scan per group
        # keeps sp:n=5 affordable.
        monkeypatch.setattr(admissible, "enumerate_admissible", cache(enumerate_admissible))
        g = build(GroupFamily.parse(spec))
        rng = random.Random(f"stream:{spec}")
        hits = polytope._certificates(g).hits
        for _ in range(200):
            Lambda = _benchmark_lambda(g, rng)
            p = polytope.assemble(g, Lambda)
            offered = list(dict.fromkeys(record.ineq for record in p.provenance))
            fresh = remove_redundant(_canonical_system(g.dim, offered), Lambda, CertificateStore())
            assert p.system.ineqs == fresh.ineqs
            kept = set(fresh.ineqs)
            assert [r.kept for r in p.provenance] == [r.ineq in kept for r in p.provenance]
        assert polytope._certificates(g).hits - hits > 1000
        _check_certificates(applied)


def _benchmark_lambda(g, rng):
    """A strictly holomorphic orbit parameter drawn as the benchmark draws
    it: sorted half-integers in [0, 12], shifted to trace zero where the
    group needs it."""
    while True:
        vals = sorted((F(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(g.dim)),
                      reverse=True)
        if g.trace_zero:
            shift = sum(vals) / g.dim
            vals = [v - shift for v in vals]
        if in_hol_chamber(g, RatVec(vals)):
            return RatVec(vals)


def _recording(decide, applied: list):
    """decide(), recording each verdict it reaches with what it was reached
    on: the certificate, the rows still in the system, the tested row, the
    direction and the point of the system."""
    def wrapper(cert, rows, i, sign):
        verdict = decide(cert, rows, i, sign)
        if verdict is not None:
            rest = [r for r, alive in zip(rows.rows, rows.alive) if alive]
            applied.append((cert, rest, rows.rows[i], sign, rows.x0, verdict))
        return verdict
    return wrapper


# -- a certificate checker in Fraction arithmetic, independent of the simplex


def _solve_square(rows, rhs):
    """x with rows x = rhs by Gauss-Jordan on Fractions; None if singular."""
    n = len(rows)
    m = [list(map(F, r)) + [F(b)] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return [row[-1] for row in m]


def _rank(rows) -> int:
    m = [list(map(F, r)) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _dot(a, x):
    return sum((F(p) * F(q) for p, q in zip(a, x)), F(0))


def _check_certificates(applied: list):
    """Each recorded certificate proves its verdict for the tested row in
    its direction (sign * normal . x <= sign * bound) against the rows that
    were still in the system."""
    units = {}  # id(normal) -> (normal, unit); `applied` keeps every row alive

    def unit(normal) -> tuple:
        """(primitive integer direction, positive scale) of a normal."""
        entry = units.get(id(normal))
        if entry is None:
            den = 1
            for a in normal:
                den = den * a.denominator // gcd(den, a.denominator)
            ints = [int(a * den) for a in normal]
            g = gcd(*ints) or 1
            entry = units[id(normal)] = (normal, (tuple(a // g for a in ints), F(g, den)))
        return entry[1]

    def named(rest, key):
        """The row of rest with this (unit, kind) and least bound, or None."""
        found = [r for r in rest if r.kind == key[1] and unit(r.normal)[0] == key[0]]
        return min(found, key=lambda r: r.bound / unit(r.normal)[1], default=None)

    for cert, rest, row, sign, x0, verdict in applied:
        u, scale = unit(row.normal)
        direction = [sign * a for a in u]
        target = sign * row.bound / scale
        if isinstance(cert, Farkas):
            assert verdict is True
            # Every named row is in rest, with y >= 0 on the <= rows.
            support = [(named(rest, key), y) for key, y in cert.support]
            equalities = [named(rest, key) for key in cert.equalities]
            assert all(r is not None and y >= 0 for r, y in support)
            assert all(r is not None for r in equalities)
            # sum y * unit is the direction up to the equalities' normals ...
            residual = list(direction)
            for r, y in support:
                residual = [a - y * b for a, b in zip(residual, unit(r.normal)[0])]
            normals = [list(r.normal) for r in equalities]
            assert _rank(normals + [residual]) == _rank(normals)
            # ... so at a point of those equalities the bound follows.
            assert all(_dot(r.normal, x0) == r.bound for r in equalities)
            slack = sum((y * (r.bound / unit(r.normal)[1] - _dot(unit(r.normal)[0], x0))
                         for r, y in support), F(0))
            assert slack <= target - _dot(direction, x0)
        elif isinstance(cert, Witness):
            assert verdict is False
            basis = [named(rest, key) for key in cert.keys]
            assert all(r is not None for r in basis)
            dim = len(row.normal)
            lhs = [list(unit(r.normal)[0]) for r in basis]
            lhs += [[int(j == c) for j in range(dim)] for c in cert.coords]
            rhs = [r.bound / unit(r.normal)[1] for r in basis] + [x0[c] for c in cert.coords]
            x = _solve_square(lhs, rhs)
            assert x is not None
            assert all(r.satisfied_by(RatVec(x)) for r in rest)
            assert _dot(direction, x) > target
        else:
            assert isinstance(cert, Ray) and verdict is False
            d = cert.direction
            assert all(r.satisfied_by(x0) for r in rest)
            assert all(_dot(r.normal, d) <= 0 if r.kind == LE else _dot(r.normal, d) == 0
                       for r in rest)
            assert _dot(direction, d) > 0


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
    status2, val2, _ = lp_max(sys, [-a for a in row.normal])
    return status2 == "optimal" and val2 == -row.bound


def _reference_remove_redundant(sys):
    if not lp_feasible(sys):
        return HPolyhedron.empty(sys.dim)
    tightest = {}
    for row in sys.ineqs:
        if row.kind == LE:
            cur = tightest.get(row.normal)
            if cur is None or row.bound < cur:
                tightest[row.normal] = row.bound
    rows = [r for r in sys.ineqs if r.kind != LE or r.bound == tightest[r.normal]]
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


def _dd_feasible(s):
    """(feasible, witness) from the rays of the homogenised cone
    { (x, t) : a.x - b t <= 0 (= for equalities), -t <= 0 }: s has a point
    iff some ray has t > 0, and then x = r[:n] / r[n] is one."""
    n = s.dim
    rows = [AffineIneq(RatVec([*r.normal, -r.bound]), 0, r.kind) for r in s.ineqs]
    _, rays = cone_rays(HPolyhedron(n + 1, rows + [ineq_le([0] * n + [-1], 0)]))
    r = next((r for r in rays if r[n] > 0), None)
    return (False, None) if r is None else (True, RatVec(c / r[n] for c in r[:n]))


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
        feasible, witness = _dd_feasible(s)
        assert feasible == lp_feasible(s)
        if feasible:
            assert s.contains(witness)

    def test_cone_hull(self):
        cone = cone_hull([RatVec([2, 0]), RatVec([1, 1]), RatVec([0, 2])], 2)
        assert poly_equal(cone, sysd(2, ineq_ge([1, 0], 0), ineq_ge([0, 1], 0)))
        origin = cone_hull([], 2)
        assert origin.contains(RatVec([0, 0])) and not origin.contains(RatVec([1, 0]))


class TestConeRays:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rays_generate_the_cone(self, data):
        dim = data.draw(st.integers(1, 4))
        rows = []
        for _ in range(data.draw(st.integers(0, 7))):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            rows.append(AffineIneq(RatVec(coeffs), 0, data.draw(st.sampled_from([LE, LE, LE, EQ]))))
        s = HPolyhedron(dim, rows)
        lineality, rays = cone_rays(s)
        generators = [*rays, *lineality, *(RatVec(-c for c in l) for l in lineality)]
        for v in generators:
            assert s.contains(v)
            assert all(c.denominator == 1 for c in v) and gcd(*(c.numerator for c in v)) == 1
        assert _rank([list(l) for l in lineality]) == len(lineality)
        tight_sets = []
        for r in rays:
            tight = [row for row in s.ineqs if _dot(row.normal, r) == 0]
            assert _rank([list(row.normal) for row in tight]) == dim - len(lineality) - 1
            tight_sets.append(frozenset(tight))
        assert len(set(tight_sets)) == len(rays)  # no ray twice
        assert poly_equal(cone_hull(generators, dim), s)

    def test_whole_space(self):
        lineality, rays = cone_rays(HPolyhedron(3, []))
        assert sorted(lineality, key=lambda v: v.entries) == [
            RatVec([0, 0, 1]), RatVec([0, 1, 0]), RatVec([1, 0, 0])]
        assert rays == []

    def test_half_space(self):
        lineality, rays = cone_rays(sysd(3, ineq_le([1, 1, 0], 0)))
        assert len(lineality) == 2 and len(rays) == 1
        assert all(l.dot(RatVec([1, 1, 0])) == 0 for l in lineality)
        assert rays[0].dot(RatVec([1, 1, 0])) < 0

    def test_line(self):
        lineality, rays = cone_rays(sysd(2, ineq_eq([1, -1], 0)))
        assert lineality in ([RatVec([1, 1])], [RatVec([-1, -1])]) and rays == []

    def test_pointed_quadrant(self):
        lineality, rays = cone_rays(sysd(2, ineq_ge([1, 0], 0), ineq_ge([0, 1], 0)))
        assert lineality == [] and set(rays) == {RatVec([1, 0]), RatVec([0, 1])}


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
        # a row prints as its integer row: normal (1, -2), bound 1/4, times 4
        s = sysd(2, ineq_le([1, -2], F(1, 2)))
        obj = s.to_json_obj()
        assert obj["dim"] == 2
        assert obj["ineqs"][0] == {"a": ["2", "-4"], "b": "1", "eq": False}


class TestGuards:
    @pytest.mark.parametrize("call", [
        lambda s: implies_all(s, [ineq_le([1], 0)]),
        lambda s: lp_max(s, [1, 0, 0]),
        lambda s: remove_redundant(s, known=RatVec([0])),
        lambda s: poly_equal(s, sysd(1, ineq_le([1], 0))),
        lambda s: cone_hull([RatVec([1, 0, 0])], s.dim),
        lambda s: cone_hull([RatVec([1])], s.dim),
    ], ids=["implies_all", "lp_max-objective", "remove_redundant-known", "poly_equal",
            "cone_hull-long-generator", "cone_hull-short-generator"])
    def test_dimension_error(self, call):
        with pytest.raises(DimensionError):
            call(sysd(2, ineq_le([1, 0], 1), ineq_eq([0, 1], 0)))

    def test_cone_rays_needs_bound_zero(self):
        with pytest.raises(DomainError):
            cone_rays(sysd(2, ineq_le([1, 0], 1), ineq_eq([0, 1], 0)))
