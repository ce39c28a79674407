"""The well-covering criterion: gradings, pair enumeration, sign bounds."""

import pytest

from orbitope import goldens
from orbitope.admissible import OneParamSubgroup, enumerate_admissible, sorted_admissible
from orbitope.rootdata import GroupFamily, UnsupportedFamilyError, build
from orbitope.weyl import Perm, WeylElt
from orbitope.wellcover import WCPair, context, enumerate_m0, is_well_covering
from reference import (
    enumerate_m0_dominant,
    from_word,
    identity,
    is_dominant_pair,
    level_bounds,
    one,
    scan_well_covering,
    special_elements,
    total_dim,
    trivial_pair,
)


def g_of(spec):
    return build(GroupFamily.parse(spec))


def ops(*coords):
    return OneParamSubgroup(list(coords))


class TestGrade:
    def test_sp4_levels(self):
        # lam = (0,-1): -2e1 and the trivial line at level 0, -e1-e2 at 1,
        # -2e2 at 2; every nonzero level is >= 0
        gm = context(g_of("sp:n=2"), ops(0, -1)).graded
        assert gm.dims == {0: 2, 1: 1, 2: 1}
        assert [b for b in gm.levels[0]] == [(-2, 0)]
        assert gm.dim_below(0) == 0

    def test_su21_levels(self):
        # unitary convention, lam1 = (2,-1): <lam1, -b1> = -3, <lam1, -b2> = 0
        gm = context(g_of("su:p=2,q=1"), ops(2, -1)).graded
        assert gm.dims == {-3: 1, 0: 2}

    def test_total_dimension(self):
        for spec in ("sp:n=3", "su:p=2,q=2", "so_star:n=4"):
            g = g_of(spec)
            for lam in enumerate_admissible(g):
                gm = context(g, lam).graded
                assert total_dim(gm) == len(g.noncompact_pos) + 1
                assert gm.dims.get(0, 0) >= 1

    def test_zero_level_iff_min_pairing_zero(self):
        # all levels >= 0 exactly when the smallest module weight pairs >= 0
        for spec in ("sp:n=2", "sp:n=3", "su:p=2,q=2", "so_star:n=3", "so_star:n=4"):
            g = g_of(spec)
            for lam in enumerate_admissible(g):
                gm = context(g, lam).graded
                min_pair = min(sum(x * y for x, y in zip(lam.coords, b)) for b in g.weights_p_minus)
                assert (gm.dim_below(0) == 0) == (min_pair >= 0)

    def test_dominance_required(self):
        with pytest.raises(ValueError):
            context(g_of("sp:n=2"), ops(-1, 0))


class TestCriterion:
    def test_trivial_branch(self):
        g = g_of("sp:n=2")
        lam = ops(0, -1)
        ctx = context(g, lam)
        for w in ctx.reps:
            assert is_well_covering(g, trivial_pair(g, lam, w, 0))

    def test_rejects_nonrep(self):
        g = g_of("sp:n=2")
        lam = ops(0, -1)
        ctx = context(g, lam)
        # the shortest representative of the nontrivial coset is not valid
        shortest = WeylElt([Perm((1, 2))])
        if shortest not in ctx.reps:
            with pytest.raises(ValueError):
                is_well_covering(g, WCPair(shortest, ctx.reps[0], 0, lam))

    def test_length_violation_fails(self):
        g = g_of("su:p=2,q=1")
        lam = ops(2, -1)
        ctx = context(g, lam)
        w_short = min(ctx.reps, key=WeylElt.length)
        pair = WCPair(w_short, w_short, 0, lam)
        assert not is_well_covering(g, pair)

    def test_unsupported_family(self):
        g = g_of("so:p=5")
        with pytest.raises(UnsupportedFamilyError):
            enumerate_m0(g, ops(1, 0, 0))

    def test_empty_level_rejected(self):
        g = g_of("sp:n=2")
        lam = ops(0, -1)
        ctx = context(g, lam)
        pair = trivial_pair(g, lam, ctx.reps[0], m=5)
        assert not is_well_covering(g, pair)

    def test_empty_level_not_dominant(self):
        g = g_of("sp:n=2")
        lam = ops(0, -1)
        ctx = context(g, lam)
        assert not ctx.graded.level_nonempty(5)
        for w in ctx.reps:
            for w_prime in ctx.reps:
                assert not is_dominant_pair(g, WCPair(w, w_prime, 5, lam))

    def test_context_states_weyl_facts(self):
        g = g_of("su:p=3,q=2")
        for lam in enumerate_admissible(g):
            ctx = context(g, lam)
            assert list(ctx.lengths) == list(ctx.reps)
            assert all(ctx.lengths[w] == w.length() for w in ctx.reps)
            assert ctx.w0 == ctx.ring.group.longest()
            assert ctx.target == ctx.ring.basis_class(ctx.w0 * ctx.w_lambda)
            assert context(g, lam).target is ctx.target


class TestPairTables:
    def test_sp_only_trivial_pairs(self):
        # ony the cocharacter with vanishing first coordinate contributes
        for n in (2, 3, 4):
            g = g_of(f"sp:n={n}")
            for lam in sorted_admissible(enumerate_admissible(g)):
                pairs = enumerate_m0(g, lam)
                ctx = context(g, lam)
                w0 = ctx.ring.group.longest()
                if lam.coords == tuple([0] * (n - 1) + [-1]):
                    assert len(pairs) == len(ctx.reps)
                    assert all(p.w_prime == w0 * p.w * ctx.w_lambda for p in pairs)
                else:
                    assert pairs == []

    def test_su_n1_family(self):
        # the nontrivial pairs (hat_k^-1 w_lam, hat_{n-k+2}^-1 w_lam), k = 2..n
        for n in (2, 3, 4, 5):
            g = g_of(f"su:p={n},q=1")
            lam1 = ops(*([n] + [-1] * (n - 1)))
            ctx = context(g, lam1)
            hats, _ = special_elements(n)
            wl = ctx.w_lambda.factors[0]
            expect = sorted(
                ((WeylElt([hats[k - 1].inverse() * wl]),
                  WeylElt([hats[n + 1 - k].inverse() * wl]))
                 for k in range(2, n + 1)),
                key=lambda t: (t[0].sort_key(), t[1].sort_key()),
            )
            got = [(p.w, p.w_prime) for p in enumerate_m0(g, lam1)]
            assert got == expect
            # the other cocharacter only yields the trivial family
            mlam = ops(*([1] * (n - 1) + [-n]))
            ctx2 = context(g, mlam)
            w0 = ctx2.ring.group.longest()
            pairs2 = enumerate_m0(g, mlam)
            assert len(pairs2) == len(ctx2.reps)
            assert all(p.w_prime == w0 * p.w * ctx2.w_lambda for p in pairs2)

    def test_su22_four_pairs(self):
        g = g_of("su:p=2,q=2")
        rec = goldens.load("Pairs7.3.4.2")
        expect = sorted(
            (WeylElt([from_word(2, row["w"][0]), from_word(2, row["w"][1])]).text(),
             WeylElt([from_word(2, row["w_prime"][0]),
                      from_word(2, row["w_prime"][1])]).text())
            for row in rec.payload["pairs"]
        )
        got = sorted((p.w.text(), p.w_prime.text())
                     for p in enumerate_m0(g, ops(1, -1, 1, -1)))
        assert got == expect

    def test_so_star8_table(self):
        g = g_of("so_star:n=4")
        rec = goldens.load("Tab7.3.3-pairs")
        lam = ops(1, 1, -1, -1)
        rows = rec.payload["pairs"]
        expect = sorted(
            (WeylElt([from_word(4, row["w"][0])]).text(),
             WeylElt([from_word(4, row["w_prime"][0])]).text())
            for row in rows
        )
        got = sorted((p.w.text(), p.w_prime.text()) for p in enumerate_m0(g, lam))
        assert got == expect
        # the table's vector columns
        G = g.weyl
        w0 = G.longest()
        for row in rows:
            w = WeylElt([from_word(4, row["w"][0])])
            wp = WeylElt([from_word(4, row["w_prime"][0])])
            assert w.act(lam.coords) == tuple(row["w_lam"])
            assert w0 * wp == WeylElt([from_word(4, row["w0wp"][0])])
            assert (w0 * wp).act(lam.coords) == tuple(row["w0wp_lam"])

    def test_so_star8_vanishing_cocharacters(self):
        # (1,0,0,0) and (1,1,1,-1) contribute nothing at m = 0
        g = g_of("so_star:n=4")
        assert enumerate_m0(g, ops(1, 0, 0, 0)) == []
        assert enumerate_m0(g, ops(1, 1, 1, -1)) == []


class TestSignAndDominance:
    def test_m_nonpositive_scan(self):
        for spec in ("sp:n=2", "su:p=2,q=1", "so_star:n=3"):
            g = g_of(spec)
            for lam in sorted_admissible(enumerate_admissible(g)):
                for pair in scan_well_covering(g, lam):
                    assert pair.m <= 0

    def test_well_covering_implies_dominant(self):
        for spec in ("sp:n=2", "su:p=2,q=1", "so_star:n=3", "su:p=2,q=2"):
            g = g_of(spec)
            for lam in sorted_admissible(enumerate_admissible(g)):
                for pair in scan_well_covering(g, lam):
                    assert is_dominant_pair(g, pair)

    def test_length_equation_on_enumerated_pairs(self):
        for spec in ("su:p=3,q=1", "so_star:n=4", "su:p=2,q=2"):
            g = g_of(spec)
            for lam in sorted_admissible(enumerate_admissible(g)):
                ctx = context(g, lam)
                target = (ctx.ring.group.longest().length()
                          + ctx.w_lambda.length() + ctx.graded.dim_below(0))
                for pair in enumerate_m0(g, lam):
                    assert pair.w.length() + pair.w_prime.length() == target

    def test_trivial_pair_rule(self):
        # (w, w0 w w_lam, m) is well-covering iff no level lies below m,
        # and then every module weight pairs >= m with lam
        for spec in ("sp:n=2", "su:p=2,q=1", "so_star:n=3"):
            g = g_of(spec)
            for lam in sorted_admissible(enumerate_admissible(g)):
                ctx = context(g, lam)
                lowest, highest = level_bounds(ctx.graded)
                for w in ctx.reps:
                    for m in range(lowest, highest + 3):
                        if not ctx.graded.level_nonempty(m):
                            continue
                        pair = trivial_pair(g, lam, w, m)
                        assert is_well_covering(g, pair) == (ctx.graded.dim_below(m) == 0)
                        if ctx.graded.dim_below(m) == 0:
                            assert all(k >= m for k in ctx.graded.dims)

    def test_dominant_superset(self):
        for spec in ("su:p=2,q=2", "so_star:n=3"):
            g = g_of(spec)
            for lam in sorted_admissible(enumerate_admissible(g)):
                strict = {(p.w, p.w_prime) for p in enumerate_m0(g, lam)}
                relaxed = {(p.w, p.w_prime) for p in enumerate_m0_dominant(g, lam)}
                assert strict <= relaxed

    def test_b_case_dominant(self):
        # w' = w0 w with a regular cocharacter: the point class is nonzero
        g = g_of("su:p=2,q=2")
        lam = ops(1, -1, 1, -1)
        ctx = context(g, lam)
        w0 = ctx.ring.group.longest()
        for w in ctx.reps:
            pair = WCPair(w, w0 * w * ctx.w_lambda, 0, lam)
            if ctx.graded.dim_below(0) == 0:
                assert is_dominant_pair(g, pair)

    def test_orthogonal_star_theta_product_conjecture(self):
        # The level-(-2) weight products for the orthogonal-star family
        # have a conjectured single-class value; the engine computes them
        # directly, and here we confirm the conjecture numerically for
        # n <= 6 (it is never assumed anywhere in the package).
        from orbitope.schubert import SchubertRing

        for n in range(3, 7):
            R = SchubertRing((n,))
            for k in range(2, n):
                betas = [[1 if t in (i, j) else 0 for t in range(n)]
                         for i in range(k) for j in range(i + 1, k)]
                acc = one(R)
                for b in betas:
                    acc = R.chevalley_mult(acc, b)
                if 2 * k - 2 <= n - 1:
                    word = []
                    for t in range(2, k + 1):
                        word += list(range(2 * t - 2, t - 1, -1))
                    assert acc == R.basis_class(
                        WeylElt([from_word(n, word)])), (n, k)
                else:
                    assert acc.is_zero(), (n, k)

    def test_degree_overflow_not_dominant(self):
        g = g_of("su:p=2,q=1")
        lam = ops(1, -2)   # regular; reps = all of S_2
        ctx = context(g, lam)
        w0 = ctx.ring.group.longest()
        ident = identity(ctx.ring.group)
        assert ctx.graded.dim_below(0) == 0
        # (id, id): the criterion multiplies two copies of the point class,
        # which overflows the top degree
        assert not is_dominant_pair(g, WCPair(ident, ident, 0, lam))
        # while (w0, w0) multiplies two unit classes: dominant
        assert is_dominant_pair(g, WCPair(w0, w0, 0, lam))
