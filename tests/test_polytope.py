"""Polytope assembly, closed forms, the Horn oracle and cross-checks."""

import json
import random
from fractions import Fraction as F

import pytest

from orbitope import admissible, exactmath, goldens, polytope
from orbitope.exactmath import (
    AffineIneq,
    HPolyhedron,
    RatVec,
    _dot,
    ineq_eq,
    ineq_ge,
    ineq_le,
    poly_equal,
)
from orbitope.polytope import (
    DomainError,
    _assembly_rows,
    _closed_form_rows,
    _oracle_rows,
    assemble,
    closed_form,
    cross_check,
    display_ineq,
    horn_oracle_member,
    member,
)
from orbitope.admissible import enumerate_admissible
from orbitope.rootdata import (
    GroupFamily,
    UnsupportedFamilyError,
    build,
    in_hol_chamber,
)
from orbitope.wellcover import enumerate_m0
from reference import (
    contained_in_hol_closure,
    contained_in_shifted_cone,
    lp_max,
    noncompact_cone,
    polytope_system,
    relaxed_rows,
    schmid_cone,
)


def g_of(spec):
    return build(GroupFamily.parse(spec))


class TestAssembleExamples:
    def test_sp4(self):
        p = assemble(g_of("sp:n=2"), [3, 1])
        assert p.pretty() == "xi1 - xi2 >= 0; xi1 >= 3; xi2 >= 1"
        expect = HPolyhedron(2, [ineq_ge([1, -1], 0), ineq_ge([1, 0], 3),
                                 ineq_ge([0, 1], 1)])
        assert poly_equal(p.system, expect)

    def test_su21(self):
        # the chain 2x1 - x2 >= 4 >= -x1 + 2x2 >= -2 plus dominance
        p = assemble(g_of("su:p=2,q=1"), [2, 0])
        expect = HPolyhedron(2, [
            ineq_ge([2, -1], 4), ineq_le([-1, 2], 4), ineq_ge([-1, 2], -2),
            ineq_ge([1, -1], 0),
        ])
        assert poly_equal(p.system, expect)

    def test_so_star6_bounds(self):
        # right sides (0, 2, 4, -2, -4) for Lambda = (3, 2, 1)
        p = assemble(g_of("so_star:n=3"), [3, 2, 1])
        expect = HPolyhedron(3, [
            ineq_ge([1, -1, 0], 0), ineq_ge([0, 1, -1], 0),
            ineq_ge([-1, 1, 1], 0), ineq_ge([1, -1, 1], 2), ineq_ge([1, 1, -1], 4),
            ineq_ge([1, -1, -1], -2), ineq_ge([-1, 1, -1], -4),
        ])
        assert poly_equal(p.system, expect)

    def test_lambda_validation(self):
        with pytest.raises(DomainError):
            assemble(g_of("sp:n=2"), [3, 0])       # boundary of the chamber
        with pytest.raises(DomainError):
            assemble(g_of("sp:n=2"), [1, 3])       # not dominant
        with pytest.raises(DomainError):
            assemble(g_of("su:p=2,q=2"), [3, 1, -1, -2])   # trace not zero
        with pytest.raises(UnsupportedFamilyError):
            assemble(g_of("so:p=5"), [2, 1, 0])

    def test_provenance(self):
        p = assemble(g_of("sp:n=2"), [3, 1])
        sources = {rec.source for rec in p.provenance}
        assert sources == {"chamber", "pair"}
        kept = [rec for rec in p.provenance if rec.kept]
        assert len(kept) >= len(p.system.ineqs)
        pair_recs = [rec for rec in p.provenance if rec.source == "pair"]
        assert all(rec.lam is not None and rec.w is not None for rec in pair_recs)

    @pytest.mark.parametrize("spec, lam, other", [
        ("sp:n=3", [F(11, 2), 3, 1], [7, 3, 1]),
        ("su:p=2,q=2", [3, 1, -1, -3], [5, 1, -2, -4]),
        ("so_star:n=4", [9, 7, 4, 1], [10, 7, 4, 1]),
    ])
    def test_answer_shares_rows_and_labels(self, spec, lam, other):
        # Equal rows are one object and kept records hold the very row
        # objects of the system; a request for another Lambda reuses the
        # pair labels and every pair row's normal, a cached pair's (or an
        # equal chamber row's) tuple.
        g = g_of(spec)
        p = assemble(g, lam)
        assert len({id(r.ineq) for r in p.provenance}) == len({r.ineq for r in p.provenance})
        kept = [rec for rec in p.provenance if rec.kept]
        assert {id(r) for r in p.system.ineqs} == {id(rec.ineq) for rec in kept}
        first = {(r.lam, r.w, r.w_prime): r for r in p.provenance if r.source == "pair"}
        shared_normals = {id(r.normal) for r in g.chamber.ineqs} | {
            id(pair.row_vectors[0])
            for cochar in enumerate_admissible(g) for pair in enumerate_m0(g, cochar)
        }
        for b in assemble(g, other).provenance:
            if b.source == "pair":
                a = first[(b.lam, b.w, b.w_prime)]
                assert a.lam is b.lam and a.w is b.w and a.w_prime is b.w_prime
                assert id(b.ineq.normal) in shared_normals

    def test_json_shape(self):
        p = assemble(g_of("sp:n=2"), [3, 1])
        obj = p.to_json_obj()
        assert obj["group"] == "sp:n=2"
        assert obj["Lambda"] == ["3", "1"]
        assert {"a", "b", "eq"} <= set(obj["ineqs"][0])
        blob = json.dumps(obj)
        assert json.loads(blob) == obj


class TestClosedFormAgainstGoldens:
    CASES = [
        ("sp:n=2", "Thm7.3.1", "n=2", [3, 2]),
        ("sp:n=3", "Thm7.3.1", "n=3", [4, 3, 2]),
        ("sp:n=4", "Thm7.3.1", "n=4", [5, 4, 3, 2]),
        ("su:p=2,q=1", "Thm7.3.4", "n=2", [2, 0]),
        ("su:p=3,q=1", "Thm7.3.4", "n=3", [3, 1, 0]),
        ("su:p=4,q=1", "Thm7.3.4", "n=4", [4, 2, 1, 0]),
        ("so_star:n=3", "Thm7.3.6", "n=3", [3, 2, 1]),
        ("so_star:n=4", "Thm7.3.8", "n=4", [4, 3, 2, 1]),
        ("su:p=2,q=2", "Thm7.3.11", "p=2,q=2", [3, 1, -1, -3]),
    ]

    @pytest.mark.parametrize("spec,golden_id,instance,lam", CASES)
    def test_matches_golden_rows(self, spec, golden_id, instance, lam):
        g = g_of(spec)
        Lambda = RatVec(lam)
        rec = goldens.load(golden_id)
        golden_sys = polytope_system(rec, instance, Lambda)
        cf = closed_form(g, Lambda)
        assert poly_equal(cf.system, golden_sys)

    def test_no_closed_form(self):
        with pytest.raises(DomainError):
            closed_form(g_of("so_star:n=5"), [5, 4, 3, 2, 1])
        with pytest.raises(DomainError):
            closed_form(g_of("su:p=3,q=2"), [4, 2, 0, -2, -4])

    def test_su22_abs_value_bound(self):
        # max |x1 - x2 - x3 + x4| = 4 at Lambda = (3, 1, -1, -3), attained both ways
        cf = closed_form(g_of("su:p=2,q=2"), [3, 1, -1, -3])
        for objective in ([1, -1, -1, 1], [-1, 1, 1, -1]):
            status, value, _ = lp_max(cf.system, objective)
            assert (status, value) == ("optimal", 4)


class TestMember:
    def test_lambda_inside(self):
        for spec, lam in [("sp:n=2", [3, 1]), ("su:p=2,q=1", [2, 0]),
                          ("so_star:n=3", [3, 2, 1]), ("su:p=2,q=2", [3, 1, -1, -3])]:
            p = assemble(g_of(spec), lam)
            assert member(p, lam)

    def test_outside_chamber(self):
        p = assemble(g_of("sp:n=2"), [3, 1])
        assert not member(p, [1, 3])

    def test_schmid_shift(self):
        p = assemble(g_of("sp:n=2"), [3, 1])
        assert member(p, [5, 1])   # Lambda + first strongly orthogonal root

    def test_dim_mismatch(self):
        p = assemble(g_of("sp:n=2"), [3, 1])
        with pytest.raises(Exception):
            member(p, [1, 2, 3])


class TestOracle:
    def test_lambda_member(self):
        for spec, lam in [("sp:n=2", [3, 1]), ("su:p=2,q=1", [2, 0]),
                          ("so_star:n=3", [3, 2, 1]), ("su:p=2,q=2", [3, 1, -1, -3])]:
            assert horn_oracle_member(g_of(spec), lam, lam)

    def test_sp4_examples(self):
        g = g_of("sp:n=2")
        assert not horn_oracle_member(g, [3, 1], [2, 1])
        assert horn_oracle_member(g, [3, 1], [4, 2])
        ok, gamma = horn_oracle_member(g, [3, 1], [4, 2], witness=True)
        assert ok and gamma is not None
        # the witness lies in the strongly orthogonal cone and is a valid
        # difference spectrum
        assert schmid_cone(g).contains(gamma)

    def test_rational_points(self):
        g = g_of("su:p=2,q=1")
        p = assemble(g, [2, 0])
        for mu in ([F(5, 2), F(1, 2)], [F(7, 2), 1], [2, F(1, 2)]):
            assert horn_oracle_member(g, [2, 0], mu) == member(p, mu)

    ROUTES = {
        "oracle": _oracle_rows,
        "closed-form": _closed_form_rows,
        "assembly": lambda g: _assembly_rows(g)[0],
    }

    CASES = [("oracle", spec) for spec in
             ("sp:n=4", "su:p=6,q=1", "su:p=3,q=2", "so_star:n=3", "so_star:n=5")]
    CASES += [("closed-form", spec) for spec in
              ("sp:n=3", "su:p=3,q=1", "so_star:n=3", "so_star:n=4", "su:p=2,q=2")]
    CASES += [("assembly", "su:p=2,q=2"), ("assembly", "so_star:n=4")]

    @pytest.mark.parametrize("route, spec", CASES, ids=[
        spec if route == "oracle" else f"{route}-{spec}" for route, spec in CASES])
    def test_system_is_the_constructors(self, route, spec):
        # Per parameter p only the bounds are new; the rows must be exactly
        # those HPolyhedron makes of the raw rows: scaling, order, repeats
        # dropped, and rows with a zero normal (five for so_star:n=5)
        # dropped or turned into the marker.  `at` gives each raw row's
        # canonical form, equal rows as one object.
        rows = self.ROUTES[route](g_of(spec))
        rnd = random.Random(spec)
        for _ in range(20):
            p = [F(rnd.randint(-9, 9), rnd.choice((1, 2, 3))) for _ in rows.rows[0][1]]
            raw = [AffineIneq(a, sum(c * x for c, x in zip(cs, p)), kind)
                   for a, cs, kind in rows.rows]
            assert rows.system(p).ineqs == HPolyhedron(rows.nvars, raw).ineqs
            at = rows.at(p)
            assert at == raw
            assert all(type(row.bound) is F and all(type(a) is int for a in row.normal)
                       for row in at)
            assert len({id(row) for row in at}) == len(set(at))

    def test_so_family_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            horn_oracle_member(g_of("so:p=5"), [2, 1, 0], [2, 1, 0])

    def test_outside_the_chamber_needs_no_lp(self, monkeypatch):
        def no_lp(sys):
            raise AssertionError("an LP ran")

        monkeypatch.setattr(polytope, "lp_feasible", no_lp)
        monkeypatch.setattr(polytope, "lp_witness", no_lp)
        g = g_of("sp:n=2")  # dominant: xi1 >= xi2
        assert horn_oracle_member(g, [3, 1], [1, 2]) is False
        assert horn_oracle_member(g, [3, 1], [1, 2], witness=True) == (False, None)

    def test_wrong_dimension_is_domain_error(self):
        with pytest.raises(DomainError, match="dimension"):
            horn_oracle_member(g_of("sp:n=2"), [3, 1], [3, 1, 0])


class TestCrossCheck:
    def test_small_grids(self):
        for spec, lam, radius in [("sp:n=2", [3, 1], 2), ("su:p=2,q=1", [2, 0], 2),
                                  ("su:p=2,q=2", [3, 1, -1, -3], 1)]:
            rep = cross_check(g_of(spec), lam, radius)
            assert rep.ok, rep.disagreements[:3]
            assert rep.points_checked > 0

    def test_radius_zero_checks_lambda_only(self):
        rep = cross_check(g_of("sp:n=2"), [3, 1], 0)
        assert rep.ok and rep.points_checked == 1

    def test_negative_radius_is_domain_error(self):
        with pytest.raises(DomainError):
            cross_check(g_of("sp:n=2"), [3, 1], -1)

    def test_domain_error_lives_in_exactmath(self):
        assert DomainError is exactmath.DomainError

    def test_oversized_weyl_group_fails_before_the_scan(self, monkeypatch):
        def scan(g):
            raise AssertionError("admissible scan ran")

        monkeypatch.setattr(admissible, "enumerate_admissible", scan)
        lam = list(range(17, 9, -1)) + [-53, -55]
        with pytest.raises(DomainError, match="too large to enumerate"):
            assemble(g_of("su:p=8,q=2"), lam)

    def test_oversized_box_is_domain_error(self):
        # 37^5 box points at radius 9; radius 4 on su(2, 2) (17^4) is allowed
        with pytest.raises(DomainError, match="exceeds the cap"):
            cross_check(g_of("so_star:n=5"), [9, 7, 5, 3, 1], 9)
        with pytest.raises(DomainError, match="exceeds the cap"):
            cross_check(g_of("su:p=2,q=2"), [3, 1, -1, -3], 5)


class TestGeometricProperties:
    FAMILIES = ["sp:n=2", "sp:n=3", "su:p=2,q=1", "su:p=3,q=1",
                "su:p=2,q=2", "so_star:n=3", "so_star:n=4"]

    def _random_holomorphic(self, g, rng):
        for _ in range(200):
            vals = sorted((F(rng.randint(0, 12), rng.choice([1, 2])) for _ in range(g.dim)),
                          reverse=True)
            if g.trace_zero:
                shift = sum(vals) / g.dim
                vals = [v - shift for v in vals]
            cand = RatVec(vals)
            if in_hol_chamber(g, cand):
                return cand
        raise AssertionError("could not sample a holomorphic point")

    def test_random_lambdas(self):
        rng = random.Random(20260811)
        for spec in self.FAMILIES:
            g = g_of(spec)
            for _ in range(3):
                Lambda = self._random_holomorphic(g, rng)
                p = assemble(g, Lambda)
                assert member(p, Lambda)
                assert contained_in_shifted_cone(p)
                assert contained_in_hol_closure(p)

    def test_relaxed_assembly_equal(self):
        for spec, lam in [("sp:n=2", [3, 1]), ("su:p=2,q=1", [2, 0]),
                          ("so_star:n=3", [3, 2, 1]), ("su:p=2,q=2", [3, 1, -1, -3])]:
            g = g_of(spec)
            assert poly_equal(assemble(g, lam).system, relaxed_rows(g).system(lam))

    def test_strict_chamber_at_interior_points(self):
        # the strict-pairing claim is only assertable pointwise: every grid
        # point satisfying all inequality rows strictly must pair strictly
        # positively with every noncompact positive root
        import itertools as it

        for spec, lam, radius in [("sp:n=2", [3, 1], 2), ("su:p=2,q=1", [2, 0], 2),
                                  ("so_star:n=3", [3, 2, 1], 1)]:
            g = g_of(spec)
            p = assemble(g, lam)
            found = 0
            steps = [F(k, 2) for k in range(-2 * radius, 2 * radius + 1)]
            for delta in it.product(steps, repeat=g.dim):
                mu = RatVec([a + d for a, d in zip(RatVec(lam), delta)])
                strict = all(
                    RatVec(row.normal).dot(mu) < row.bound
                    for row in p.system.ineqs if row.kind == "le"
                )
                if strict and member(p, mu):
                    found += 1
                    assert all(_dot(beta, mu)[0] > 0 for beta in g.noncompact_pos)
            assert found > 0, spec

    def test_central_shift_su22(self):
        # central Lambda = (c, c, -c, -c): the polyhedron is the shifted
        # cone {(x1, x2, -x2, -x1): x1 >= x2 >= 0}
        g = g_of("su:p=2,q=2")
        for c in (1, 2, F(5, 2)):
            Lambda = RatVec([c, c, -c, -c])
            p = assemble(g, Lambda)
            shifted = HPolyhedron(4, [
                ineq_eq([1, 0, 0, 1], 0),
                ineq_eq([0, 1, 1, 0], 0),
                ineq_ge([1, -1, 0, 0], 0),
                ineq_ge([0, 1, 0, 0], c),
            ])
            # shift: x = xi - Lambda satisfies x1+x4 = 0, x2+x3 = 0,
            # x1 >= x2, x2 >= 0; rewritten in xi with Lambda central
            expect = HPolyhedron(4, [
                ineq_eq([1, 0, 0, 1], 0),
                ineq_eq([0, 1, 1, 0], 0),
                ineq_ge([1, -1, 0, 0], 0),
                ineq_ge([0, 1, 0, 0], c),
            ])
            assert poly_equal(p.system, expect)

    def test_replaced_group_gets_its_own_cone(self):
        # equal hash, unequal group: each gets the cone of its own roots
        from dataclasses import replace
        g = g_of("sp:n=2")
        ray = replace(g, noncompact_pos=g.noncompact_pos[:1])
        assert hash(ray) == hash(g) and ray != g
        quadrant = noncompact_cone(g)
        assert quadrant.contains(RatVec([0, 1]))
        assert not noncompact_cone(ray).contains(RatVec([0, 1]))


class TestRedundancyBehavior:
    def test_so_star8_duplicate_normal(self):
        # at Lambda = (3,2,1,0) the two pair rows with normal (-1,1,-1,1)
        # carry the same bound 0; after reduction at most one survivor with
        # that normal remains (here even it is implied by the rest), both
        # generated rows stay in the provenance log, and the row with
        # normal (-1,-1,1,1) has bound -2
        g = g_of("so_star:n=4")
        Lambda = RatVec([3, 2, 1, 0])
        p = assemble(g, Lambda)
        golden = polytope_system(goldens.load("Thm7.3.8"), "n=4", Lambda)
        assert poly_equal(p.system, golden)
        key1 = (-1, 1, -1, 1)
        key2 = (-1, -1, 1, 1)
        logged = [rec for rec in p.provenance if rec.ineq.normal == key1]
        assert len(logged) == 2
        assert {rec.ineq.bound for rec in logged} == {0}
        assert sum(1 for r in p.system.ineqs if r.normal == key1) <= 1
        rows = {r.normal: r.bound for r in p.system.ineqs}
        assert rows[key2] == -2

    def test_generic_lambda_keeps_tighter_bound(self):
        g = g_of("so_star:n=4")
        p = assemble(g, [5, 3, 2, 1])
        # bounds -5+3+2-1 = -1 and 5-3-2+1 = 1: only the -1 side survives
        key = (-1, 1, -1, 1)
        rows = {r.normal: r.bound for r in p.system.ineqs}
        assert rows[key] == -1

    def test_display_forms(self):
        assert display_ineq(ineq_ge([1, -1], 0)) == "xi1 - xi2 >= 0"
        assert display_ineq(ineq_le([0, 1], 5)) == "xi2 <= 5"
        assert display_ineq(ineq_eq([1, 1], 0)) == "xi1 + xi2 = 0"
        assert display_ineq(ineq_le([2, -4], 1)) == "2*xi1 - 4*xi2 <= 1"
        # the integer row: normal (1, -1), bound 7/2, times 2
        assert display_ineq(ineq_ge([F(1, 3), F(-1, 3)], F(7, 6))) == "2*xi1 - 2*xi2 >= 7"
