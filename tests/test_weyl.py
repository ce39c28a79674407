"""Permutation combinatorics: lengths, special elements, coset reps."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitope import goldens
from orbitope.exactmath import DomainError, RatVec, _dot
from orbitope.rootdata import GroupFamily, build
from orbitope.weyl import Perm, WeylDescriptor, WeylElt, max_coset_reps, stabilizer_parabolic
from reference import (
    closed_form_admissible,
    from_text,
    from_word,
    hat_stabilizer_longest,
    identity,
    inverse,
    perm_identity,
    simple,
    special_elements,
)

from test_admissible import GOLDEN_BY_SPEC


def perms(n):
    return [Perm(p) for p in itertools.permutations(range(1, n + 1))]


class TestLength:
    def test_identity_and_longest(self):
        assert perm_identity(5).length() == 0
        for n in (2, 3, 4, 5, 6):
            assert Perm.longest(n).length() == n * (n - 1) // 2

    def test_hat_length(self):
        for r in range(1, 7):
            hats, _ = special_elements(r)
            assert [h.length() for h in hats] == list(range(r))

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_descent_law(self, n, data):
        images = data.draw(st.permutations(list(range(1, n + 1))))
        w = Perm(images)
        i = data.draw(st.integers(1, n - 1))
        ws = w * Perm.simple(n, i)
        expected = w.length() + (1 if w(i) < w(i + 1) else -1)
        assert ws.length() == expected

    def test_inverse_and_longest_laws(self):
        for w in perms(4):
            assert inverse(w).length() == w.length()
            assert (Perm.longest(4) * w).length() == 6 - w.length()


class TestSpecialElements:
    def test_check_lengths(self):
        for r in range(1, 7):
            _, checks = special_elements(r)
            assert [c.length() for c in checks] == list(range(r - 1, -1, -1))

    def test_boundary_identities(self):
        for r in range(1, 7):
            hats, checks = special_elements(r)
            assert hats[0] == perm_identity(r)
            assert checks[-1] == perm_identity(r)

    def test_conversion_identity(self):
        # w0 wQhat what_k = wcheck_k
        for r in range(1, 7):
            hats, checks = special_elements(r)
            w0 = Perm.longest(r)
            wq = hat_stabilizer_longest(r)
            for k in range(r):
                assert w0 * wq * hats[k] == checks[k]

    def test_check2_in_s3(self):
        _, checks = special_elements(3)
        assert checks[1] == Perm.simple(3, 2)

    def test_hat_one_line_by_direct_composition(self):
        # r=4: what_3 = s1 s2 applied right to left maps 1->2, 2->3, 3->1
        hats, _ = special_elements(4)
        direct = Perm.simple(4, 1) * Perm.simple(4, 2)
        assert hats[2] == direct
        assert hats[2].images == (2, 3, 1, 4)

    def test_hat_multiplication_law(self):
        # l(w what_k) = l(w) + k - 1 for w stabilizing 1
        for r in (3, 4, 5):
            hats, _ = special_elements(r)
            stab = [w for w in perms(r) if w(1) == 1]
            for w in stab:
                for k, h in enumerate(hats, start=1):
                    assert (w * h).length() == w.length() + k - 1

    def test_check_transposition_lengths(self):
        # l(wcheck_k t_{k-1,k+1}) = l(wcheck_k) + 1; other t_{i,j} with
        # i <= k < j jump by >= 2; t_{k,j} drops.
        for r in range(3, 7):
            _, checks = special_elements(r)
            for k in range(2, r):
                ck = checks[k - 1]
                t = Perm.transposition(r, k - 1, k + 1)
                assert (ck * t).length() == ck.length() + 1
                for i in range(1, k + 1):
                    for j in range(k + 1, r + 1):
                        tij = Perm.transposition(r, i, j)
                        if (i, j) == (k - 1, k + 1):
                            continue
                        if i == k:
                            assert (ck * tij).length() <= ck.length() - 1
                        else:
                            assert (ck * tij).length() >= ck.length() + 2
                # wcheck_k t_{k-1,k} = wcheck_{k-1}
                assert ck * Perm.transposition(r, k - 1, k) == checks[k - 2]


class TestCosetReps:
    def test_regular_gives_whole_group(self):
        G = WeylDescriptor((3,))
        assert len(max_coset_reps(G, (3, 2, 1))) == 6

    def test_hat_representatives(self):
        # stabilizer S_{n-1}: reps are what_k^{-1} w_lambda with the
        # expected lengths
        for n in (2, 3, 4, 5):
            G = WeylDescriptor((n,))
            lam = RatVec([n] + [-1] * (n - 1))
            reps = max_coset_reps(G, lam)
            hats, _ = special_elements(n)
            wl = stabilizer_parabolic(G, lam).factors[0]
            expect = sorted(
                (WeylElt([inverse(h) * wl]) for h in hats), key=WeylElt.sort_key
            )
            assert reps == expect
            lengths = sorted(r.length() for r in reps)
            assert lengths == sorted(wl.length() + k for k in range(n))

    def test_gl4_table_reps(self):
        # the six longest representatives for the (2,2)-block stabilizer
        rec = goldens.load("Tab7.3.3-reps")
        G = WeylDescriptor((4,))
        lam = (1, 1, -1, -1)
        reps = max_coset_reps(G, lam)
        w0 = G.longest()
        rho = RatVec(["3/2", "1/2", "-1/2", "-3/2"])
        table = {}
        for row in rec.payload["rows"]:
            w = WeylElt([from_word(4, row["w"])])
            table[w] = row
        assert set(reps) == set(table)
        for w, row in table.items():
            assert w.length() == row["length"]
            assert w0 * w == WeylElt([from_word(4, row["w0w"])])
            wlam = w.act(lam)
            assert wlam == tuple(row["w_lam"])
            num, den = _dot(wlam, rho)
            assert num == row["rho_pairing"] * den

    def test_uniqueness_assertion(self):
        G = WeylDescriptor((2, 2))
        reps = max_coset_reps(G, (1, 1, 2, 0))
        assert len(reps) == 2

    def test_order_cap_is_domain_error(self):
        # su(8, 2): |W| = 8! 2! = 80640
        G = build(GroupFamily.parse("su:p=8,q=2")).weyl
        with pytest.raises(DomainError, match="group too large to enumerate: order 80640"):
            max_coset_reps(G, RatVec([1] * 9 + [-9]))

    def test_dominance_required(self):
        G = WeylDescriptor((2,))
        with pytest.raises(ValueError):
            stabilizer_parabolic(G, (0, 1))
        with pytest.raises(ValueError):
            max_coset_reps(G, (0, 1))


CARRIER_SPECS = [spec for spec in sorted(GOLDEN_BY_SPEC)
                 if build(GroupFamily.parse(spec)).schubert_carrier]


def scan_reference(group, lam):
    """Parabolic data by listing all of W: (longest coset representatives
    sorted by sort_key, w_lambda, |W_lambda|).  The coset of w is keyed by
    the orbit point w . lam; the longest element of each coset, and of the
    stabilizer, must be unique."""
    best, tied, stabilizer = {}, {}, 0
    for w, length in weyl_group(group.degrees):
        key = w.act(lam)
        stabilizer += key == lam
        cur = best.get(key)
        if cur is None or length > cur[1]:
            best[key] = (w, length)
            tied[key] = False
        elif length == cur[1]:
            tied[key] = True
    assert not any(tied.values()), "longest coset representative was not unique"
    reps = sorted((w for w, _ in best.values()), key=WeylElt.sort_key)
    return reps, best[lam][0], stabilizer


@functools.cache
def weyl_group(degrees):
    """(w, length) for every w in S_{d1} x ... x S_{df}."""
    pools = [perms(d) for d in degrees]
    return [(w, w.length()) for w in map(WeylElt, itertools.product(*pools))]


def compositions(total):
    """Degree tuples of positive parts summing to total."""
    if total == 0:
        return [()]
    return [(d, *rest) for d in range(1, total + 1) for rest in compositions(total - d)]


def blockwise_dominant(degrees, values):
    """Every vector, entries from values, weakly decreasing in each block."""
    blocks = [itertools.combinations_with_replacement(sorted(values, reverse=True), d)
              for d in degrees]
    for combo in itertools.product(*blocks):
        yield tuple(x for block in combo for x in block)


class TestAgainstScan:
    """max_coset_reps and w_lambda are built from the runs of lambda; the
    scan over all of W is the reference."""

    def check(self, group, lam):
        reps, w_lambda, stab_order = scan_reference(group, lam)
        got = max_coset_reps(group, lam)
        assert got == reps
        assert stabilizer_parabolic(group, lam) == w_lambda
        assert len(got) == group.order // stab_order

    def test_small_degrees(self):
        cases = 0
        for total in range(1, 7):
            for degrees in compositions(total):
                group = WeylDescriptor(degrees)
                for lam in blockwise_dominant(degrees, (0, 1, 2)):
                    self.check(group, lam)
                    cases += 1
        assert cases == 10479

    @pytest.mark.parametrize("spec", CARRIER_SPECS)
    def test_admissible_lambdas(self, spec):
        g = build(GroupFamily.parse(spec))
        for lam in closed_form_admissible(g):
            self.check(g.weyl, lam.coords)


class TestAction:
    def test_identity(self):
        G = WeylDescriptor((3,))
        v = (5, -1, 2)
        assert identity(G).act(v) == v
        assert identity(G).act(RatVec(v)) == RatVec(v).entries

    def test_simple_swap(self):
        G = WeylDescriptor((2,))
        assert simple(G, 0, 1).act((3, 1)) == (1, 3)

    def test_su31_lambda_orbit(self):
        # (s2 s1) lambda_1 = lambda_3 with lambda_k = 4 e_k - sum e
        G = WeylDescriptor((3,))
        s1, s2 = simple(G, 0, 1), simple(G, 0, 2)
        assert (s2 * s1).act((3, -1, -1)) == (-1, -1, 3)

    def test_blockwise(self):
        G = WeylDescriptor((2, 2))
        w = WeylElt([Perm((2, 1)), Perm((1, 2))])
        assert w.act((1, 2, 3, 4)) == (2, 1, 3, 4)
        assert w.act([1, 2, 3, 4]) == (2, 1, 3, 4)

    def test_text_round_trip(self):
        w = WeylElt([Perm((2, 1, 3)), Perm((1, 2))])
        assert w.text() == "2 1 3|1 2"
        assert from_text(w.text()) == w
