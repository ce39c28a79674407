"""Schubert calculus: polynomial model, Chevalley rule, duality.

Two independent cross-checks pin the cup product: the degree-2
multiplication rule implemented separately in the package, and a
coinvariant-algebra oracle implemented here (reduction modulo the
symmetric ideal by linear algebra over the monomial basis).
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from orbitope.schubert import (
    CohClass,
    SchubertRing,
    divided_difference,
    expand_in_schubert,
    perm_from_code,
    poly_mul,
)
from orbitope.weyl import Perm, WeylDescriptor, WeylElt, max_coset_reps, stabilizer_parabolic
from reference import (
    code,
    duality_check,
    from_word,
    from_words,
    identity,
    one,
    scale,
    schubert_poly_dict,
    simple,
    special_elements,
    theta,
)

# ---------------------------------------------------------------------------
# Coinvariant-algebra oracle for GL_3 (independent reduction route)
# ---------------------------------------------------------------------------


def _monomials(nvars, deg):
    if nvars == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _monomials(nvars - 1, deg - first):
            yield (first,) + rest


def _elementary(nvars, k):
    out = {}
    for subset in itertools.combinations(range(nvars), k):
        mono = [0] * nvars
        for i in subset:
            mono[i] = 1
        out[tuple(mono)] = 1
    return out


def _pad_poly(p, nvars):
    return {tuple(m) + (0,) * (nvars - len(m)): c for m, c in p.items()}


class CoinvariantGL3:
    """Z[x1,x2,x3] / (e1, e2, e3): reduction by exact row elimination over
    the monomial basis, one degree at a time."""

    NVARS = 3

    def __init__(self):
        self._reducers = {}

    def _degree_reducer(self, deg):
        if deg in self._reducers:
            return self._reducers[deg]
        monos = sorted(_monomials(self.NVARS, deg), reverse=True)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for k in (1, 2, 3):
            if deg < k:
                continue
            e_k = _elementary(self.NVARS, k)
            for m in _monomials(self.NVARS, deg - k):
                prod = poly_mul({tuple(m): 1}, e_k)
                row = [F(0)] * len(monos)
                for mono, c in _pad_poly(prod, self.NVARS).items():
                    row[index[mono]] = F(c)
                rows.append(row)
        # row echelon with recorded pivots
        pivots = {}
        for row in rows:
            row = row[:]
            for col, piv in pivots.items():
                if row[col] != 0:
                    f = row[col]
                    row = [a - f * b for a, b in zip(row, piv)]
            lead = next((j for j, a in enumerate(row) if a != 0), None)
            if lead is None:
                continue
            lv = row[lead]
            pivots[lead] = [a / lv for a in row]
        self._reducers[deg] = (monos, index, pivots)
        return self._reducers[deg]

    def reduce(self, poly):
        """Normal form of a homogeneous polynomial modulo the ideal."""
        if not poly:
            return {}
        deg = sum(next(iter(poly)))
        monos, index, pivots = self._degree_reducer(deg)
        vec = [F(0)] * len(monos)
        for m, c in _pad_poly(poly, self.NVARS).items():
            vec[index[m]] += c
        for col, piv in pivots.items():
            if vec[col] != 0:
                f = vec[col]
                vec = [a - f * b for a, b in zip(vec, piv)]
        return {m: vec[i] for i, m in enumerate(monos) if vec[i] != 0}

    def classes_agree(self, p, q):
        diff = dict(p)
        for m, c in q.items():
            diff[m] = diff.get(m, 0) - c
        diff = {m: c for m, c in diff.items() if c != 0}
        if not diff:
            return True
        return not self.reduce(diff)


# ---------------------------------------------------------------------------


def all_perms(n):
    return [Perm(p) for p in itertools.permutations(range(1, n + 1))]


class TestPolynomialModel:
    def test_staircase(self):
        assert schubert_poly_dict(Perm((3, 2, 1))) == {(2, 1): 1}
        assert schubert_poly_dict(Perm((1, 2, 3))) == {(): 1}

    def test_divided_difference_formula(self):
        # d_1 of x1^2 = x1 + x2
        assert divided_difference({(2,): 1}, 1) == {(1,): 1, (0, 1): 1}
        # symmetric input dies
        assert divided_difference({(1, 1): 1}, 1) == {}

    def test_leading_monomial_is_code(self):
        for n in (2, 3, 4, 5):
            for w in all_perms(n):
                poly = schubert_poly_dict(w)
                if w.length() == 0:
                    assert poly == {(): 1}
                    continue
                width = max(len(m) for m in poly)
                pad = lambda m: m + (0,) * (width - len(m))
                lead = max(poly, key=lambda m: tuple(reversed(pad(m))))
                digits = list(code(w))
                while digits and digits[-1] == 0:
                    digits.pop()
                assert lead == tuple(digits)
                assert poly[lead] == 1

    def test_self_expansion(self):
        for w in all_perms(4):
            assert expand_in_schubert(schubert_poly_dict(w)) == {w.trim(): 1}

    def test_perm_from_code(self):
        assert perm_from_code((1, 0)) == Perm((2, 1))
        assert perm_from_code((3, 0, 0, 0)) == Perm((4, 1, 2, 3))
        for w in all_perms(4):
            assert perm_from_code(code(w)).trim() == w.trim()


class TestCupProduct:
    def test_identity_unit(self):
        R = SchubertRing((3,))
        for w in all_perms(3):
            c = R.basis_class(WeylElt([w]))
            assert R.cup(one(R), c) == c

    def test_power_rule_and_hat_products(self):
        # (s_{s1})^k = s_{s_k...s_1}; products of the hat-inverse classes
        # truncate at the top length
        for n in range(2, 7):
            R = SchubertRing((n,))
            s1 = R.basis_class(simple(R.group, 0, 1))
            powers = [one(R)]
            for _ in range(n):
                powers.append(R.cup(powers[-1], s1))
            for k in range(1, n):
                expect = WeylElt([from_word(n, list(range(k, 0, -1)))])
                assert powers[k] == R.basis_class(expect)
            assert powers[n].is_zero()
            # sigma_{hat_a^-1} . sigma_{hat_b^-1}
            hats, _ = special_elements(n)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    ca = R.basis_class(WeylElt([hats[a - 1].inverse()]))
                    cb = R.basis_class(WeylElt([hats[b - 1].inverse()]))
                    prod = R.cup(ca, cb)
                    if a + b <= n + 1:
                        assert prod == R.basis_class(
                            WeylElt([hats[a + b - 1 - 1].inverse()]))
                    else:
                        assert prod.is_zero()

    def test_gl4_triple(self):
        R = SchubertRing((4,))
        cls = lambda word: R.basis_class(from_words(R.group, [word]))
        assert R.cup(cls([2]), cls([1, 2])) == cls([1, 3, 2])
        assert R.cup(cls([2]), cls([3, 2])) == cls([1, 3, 2])
        assert R.cup(cls([2]), cls([1, 3, 2])) == cls([2, 1, 3, 2])

    def test_check_element_products(self):
        # s_{s_k} . s_{check_k} = s_{check_{k+1} s_{k-1} s_k}; for k = 1 it
        # dies; shifting the index adds the lower check class.
        for r in (3, 4, 5, 6):
            R = SchubertRing((r,))
            hats, checks = special_elements(r)
            ck = lambda k: WeylElt([checks[k - 1]])
            sk = lambda k: R.basis_class(simple(R.group, 0, k))
            assert R.cup(sk(1), R.basis_class(ck(1))).is_zero()
            for k in range(2, r):
                expect_w = WeylElt([
                    checks[k] * Perm.simple(r, k - 1) * Perm.simple(r, k)])
                assert R.cup(sk(k), R.basis_class(ck(k))) == R.basis_class(expect_w)
                got = R.cup(sk(k - 1), R.basis_class(ck(k)))
                assert got == R.basis_class(expect_w) + R.basis_class(ck(k - 1))
                # the difference identity
                diff = R.basis_class(simple(R.group, 0, k - 1)) - sk(k)
                assert R.cup(diff, R.basis_class(ck(k))) == R.basis_class(ck(k - 1))

    def test_commutative_associative(self):
        random.seed(11)
        for degrees in [(3,), (4,), (2, 2)]:
            R = SchubertRing(degrees)
            pool = [WeylElt(c) for c in itertools.product(
                *[all_perms(d) for d in degrees])]
            for _ in range(25):
                a, b, c = (R.basis_class(random.choice(pool)) for _ in range(3))
                assert R.cup(a, b) == R.cup(b, a)
                assert R.cup(R.cup(a, b), c) == R.cup(a, R.cup(b, c))

    def test_positivity_and_grading(self):
        R = SchubertRing((4,))
        for u in all_perms(4):
            for v in all_perms(4):
                prod = R.cup(R.basis_class(WeylElt([u])), R.basis_class(WeylElt([v])))
                if prod.is_zero():
                    continue
                assert prod.degree == 2 * (u.length() + v.length())
                assert all(c > 0 for c in prod.terms.values())

    def test_against_coinvariant_oracle_gl3(self):
        oracle = CoinvariantGL3()
        R = SchubertRing((3,))
        for u in all_perms(3):
            for v in all_perms(3):
                prod = R.cup(R.basis_class(WeylElt([u])), R.basis_class(WeylElt([v])))
                lhs = poly_mul(schubert_poly_dict(u), schubert_poly_dict(v))
                rhs = {}
                for w, c in prod.terms.items():
                    for m, cc in schubert_poly_dict(w.factors[0]).items():
                        rhs[m] = rhs.get(m, 0) + c * cc
                assert oracle.classes_agree(lhs, rhs), (u, v)


class TestTheta:
    def test_doubled_root(self):
        R = SchubertRing((3,))
        assert theta(R, (2, 0, 0)) == \
            scale(R.basis_class(simple(R.group, 0, 1)), 2)

    def test_unitary_convention_root(self):
        R = SchubertRing((3,))
        assert theta(R, (2, 1, 1)) == R.basis_class(simple(R.group, 0, 1))

    def test_two_block_expansion(self):
        # theta(e_i - e_{p+j}) = (-s_{i-1} + s_i) (x) 1 + 1 (x) (s_{j-1} - s_j)
        R = SchubertRing((3, 2))
        th = theta(R, (0, 1, 0, 0, -1))  # i = 2, j = 2 (p = 3, q = 2)
        s1p, s2p = simple(R.group, 0, 1), simple(R.group, 0, 2)
        s1q = simple(R.group, 1, 1)
        expect = (R.basis_class(s2p) - R.basis_class(s1p)) + R.basis_class(s1q)
        assert th == expect
        # boundary convention: i = 1 drops s_0, j = q drops s_q
        th2 = theta(R, (1, 0, 0, 0, -1))
        assert th2 == R.basis_class(s1p) + R.basis_class(s1q)

    def test_central_vanishes(self):
        R = SchubertRing((2, 2))
        assert theta(R, (1, 1, 1, 1)).is_zero()
        assert theta(R, (0, 0, 0, 0)).is_zero()

    def test_zero_annihilates(self):
        R = SchubertRing((3,))
        c = R.basis_class(simple(R.group, 0, 2))
        assert R.chevalley_mult(c, (1, 1, 1)).is_zero()


class TestChevalleyAgreesWithCup:
    def test_exhaustive_small(self):
        for n in (2, 3, 4):
            R = SchubertRing((n,))
            weights = list(itertools.product(range(-2, 3), repeat=n))
            for w in all_perms(n):
                c = R.basis_class(WeylElt([w]))
                for mu in weights:
                    v = mu
                    assert R.cup(theta(R, v), c) == R.chevalley_mult(c, v)

    def test_product_group(self):
        R = SchubertRing((2, 2))
        pool = [WeylElt(c) for c in itertools.product(all_perms(2), all_perms(2))]
        for w in pool:
            c = R.basis_class(w)
            for mu in [(1, 0, 0, -1), (1, -1, 2, 0), (0, 0, 1, -1)]:
                v = mu
                assert R.cup(theta(R, v), c) == R.chevalley_mult(c, v)


def _monk_by_definition(R, w, mu):
    """sum of (mu_a - mu_b) s_{w t_ab} over the a < b of each factor with
    l(w t_ab) = l(w) + 1, by composing with the transposition."""
    out = {}
    for f, (start, stop) in enumerate(R.group.block_ranges()):
        wf, d = w.factors[f], stop - start
        for a in range(1, d):
            for b in range(a + 1, d + 1):
                wt = wf * Perm.transposition(d, a, b)
                if wt.length() == wf.length() + 1:
                    nw = WeylElt(wt if k == f else p for k, p in enumerate(w.factors))
                    out[nw] = out.get(nw, 0) + int(mu[start + a - 1] - mu[start + b - 1])
    return CohClass(out)


class TestMonkRule:
    @pytest.mark.parametrize("degrees", [(1,), (2,), (3,), (4,), (5,), (6,), (3, 2), (2, 3, 1)])
    def test_matches_definition(self, degrees):
        R = SchubertRing(degrees)
        rng = random.Random(str(degrees))
        mu = tuple(rng.randint(-4, 4) for _ in range(R.group.dim))
        for factors in itertools.product(*[all_perms(d) for d in degrees]):
            w = WeylElt(factors)
            assert R.chevalley_mult(R.basis_class(w), mu) == _monk_by_definition(R, w, mu)

    def test_integral_differences(self):
        # Only the differences inside a block count: a shift of each block
        # by its own constant leaves the product alone.
        R = SchubertRing((3, 2))
        c = R.basis_class(simple(R.group, 0, 1))
        assert R.chevalley_mult(c, (1, -1, 3, 5, 8)) == R.chevalley_mult(c, (0, -2, 2, 0, 3))


class TestDuality:
    def test_regular_case(self):
        for n in (2, 3, 4):
            R = SchubertRing((n,))
            G = R.group
            lam = tuple(range(n, 0, -1))
            wl = stabilizer_parabolic(G, lam)
            w0 = G.longest()
            for w in max_coset_reps(G, lam):
                for wp in max_coset_reps(G, lam):
                    if w.length() + wp.length() >= w0.length():
                        assert duality_check(R, w, wp, wl) == (wp == w0 * w)

    def test_all_standard_parabolics_gl4(self):
        R = SchubertRing((4,))
        G = R.group
        w0 = G.longest()
        # dominant vectors realizing every subset of the walls
        for walls in itertools.product((0, 1), repeat=3):
            vals, cur = [4], 4
            for flat in walls:
                cur -= 0 if flat else 1
                vals.append(cur)
            wl = stabilizer_parabolic(G, vals)
            reps = max_coset_reps(G, vals)
            for w in reps:
                for wp in reps:
                    if w.length() + wp.length() >= w0.length() + wl.length():
                        expected = wp == w0 * w * wl
                        assert duality_check(R, w, wp, wl) == expected

    def test_precondition(self):
        R = SchubertRing((3,))
        wl = stabilizer_parabolic(R.group, (2, 1, 0))
        with pytest.raises(ValueError):
            duality_check(R, identity(R.group), identity(R.group), wl)


class TestCohClass:
    def test_homogeneity_enforced(self):
        G = WeylDescriptor((3,))
        with pytest.raises(ValueError):
            CohClass({identity(G): 1, simple(G, 0, 1): 1})
        R = SchubertRing((3,))
        with pytest.raises(ValueError):
            one(R) + R.basis_class(simple(R.group, 0, 1))

    def test_products_pass_the_public_check(self):
        # chevalley_mult and cup build their classes without the recount;
        # each must still be graded and hold no zero coefficient
        R = SchubertRing((3, 2))
        pool = [WeylElt(c) for c in itertools.product(all_perms(3), all_perms(2))]
        mu = (2, 0, -1, 1, 0)
        for u in pool:
            a = R.basis_class(u)
            products = [R.chevalley_mult(a, mu), theta(R, mu)]
            products += [R.cup(a, R.basis_class(v)) for v in pool]
            # a difference of two classes, whose common covers can cancel
            products += [R.chevalley_mult(a - R.basis_class(v), mu) for v in pool
                         if v.length() == u.length()]
            for c in products:
                assert CohClass(c.terms).terms == c.terms
                assert 0 not in c.terms.values()

    def test_text_form(self):
        R = SchubertRing((4,))
        c = scale(R.basis_class(from_words(R.group, [[1, 3, 2]])), 3)
        assert c.text() == "3*s1.s3.s2"
        assert R.zero().text() == "0"
        R2 = SchubertRing((2, 2))
        d = R2.basis_class(WeylElt([Perm((2, 1)), Perm((1, 2))]))
        assert d.text() == "1*s1|id"
