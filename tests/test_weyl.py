"""Permutation combinatorics: lengths, special elements, coset reps."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitope import goldens
from orbitope.exactmath import DomainError, RatVec, _dot
from orbitope.rootdata import GroupFamily, build
from orbitope.weyl import (
    WeylDescriptor,
    act,
    length,
    max_coset_reps,
    mul,
    stabilizer_parabolic,
    text,
)
from reference import (
    closed_form_admissible,
    compose,
    from_text,
    from_word,
    hat_stabilizer_longest,
    identity,
    inverse,
    is_weyl,
    perm_identity,
    perm_length,
    simple,
    special_elements,
    transposition,
)

from test_admissible import GOLDEN_BY_SPEC


def perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def longest(n):
    return tuple(range(n, 0, -1))


class TestLength:
    def test_identity_and_longest(self):
        assert perm_length(perm_identity(5)) == 0
        for n in (2, 3, 4, 5, 6):
            assert length(WeylDescriptor((n,)).longest()) == n * (n - 1) // 2
        assert length(WeylDescriptor((3, 1, 2)).longest()) == 4

    def test_hat_length(self):
        for r in range(1, 7):
            hats, _ = special_elements(r)
            assert [perm_length(h) for h in hats] == list(range(r))

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_descent_law(self, n, data):
        w = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
        i = data.draw(st.integers(1, n - 1))
        ws = compose(w, transposition(n, i, i + 1))
        expected = perm_length(w) + (1 if w[i - 1] < w[i] else -1)
        assert perm_length(ws) == expected

    def test_inverse_and_longest_laws(self):
        for w in perms(4):
            assert perm_length(inverse(w)) == perm_length(w)
            assert perm_length(compose(longest(4), w)) == 6 - perm_length(w)


class TestSpecialElements:
    def test_check_lengths(self):
        for r in range(1, 7):
            _, checks = special_elements(r)
            assert [perm_length(c) for c in checks] == list(range(r - 1, -1, -1))

    def test_boundary_identities(self):
        for r in range(1, 7):
            hats, checks = special_elements(r)
            assert hats[0] == perm_identity(r)
            assert checks[-1] == perm_identity(r)

    def test_conversion_identity(self):
        # w0 wQhat what_k = wcheck_k
        for r in range(1, 7):
            hats, checks = special_elements(r)
            w0 = longest(r)
            wq = hat_stabilizer_longest(r)
            for k in range(r):
                assert compose(w0, wq, hats[k]) == checks[k]

    def test_check2_in_s3(self):
        _, checks = special_elements(3)
        assert checks[1] == transposition(3, 2, 3)

    def test_hat_one_line_by_direct_composition(self):
        # r=4: what_3 = s1 s2 applied right to left maps 1->2, 2->3, 3->1
        hats, _ = special_elements(4)
        direct = compose(transposition(4, 1, 2), transposition(4, 2, 3))
        assert hats[2] == direct == (2, 3, 1, 4)

    def test_hat_multiplication_law(self):
        # l(w what_k) = l(w) + k - 1 for w stabilizing 1
        for r in (3, 4, 5):
            hats, _ = special_elements(r)
            stab = [w for w in perms(r) if w[0] == 1]
            for w in stab:
                for k, h in enumerate(hats, start=1):
                    assert perm_length(compose(w, h)) == perm_length(w) + k - 1

    def test_check_transposition_lengths(self):
        # l(wcheck_k t_{k-1,k+1}) = l(wcheck_k) + 1; other t_{i,j} with
        # i <= k < j jump by >= 2; t_{k,j} drops.
        for r in range(3, 7):
            _, checks = special_elements(r)
            for k in range(2, r):
                ck = checks[k - 1]
                t = transposition(r, k - 1, k + 1)
                assert perm_length(compose(ck, t)) == perm_length(ck) + 1
                for i in range(1, k + 1):
                    for j in range(k + 1, r + 1):
                        tij = transposition(r, i, j)
                        if (i, j) == (k - 1, k + 1):
                            continue
                        if i == k:
                            assert perm_length(compose(ck, tij)) <= perm_length(ck) - 1
                        else:
                            assert perm_length(compose(ck, tij)) >= perm_length(ck) + 2
                # wcheck_k t_{k-1,k} = wcheck_{k-1}
                assert compose(ck, transposition(r, k - 1, k)) == checks[k - 2]


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
            (wl,) = stabilizer_parabolic(G, lam)
            expect = sorted((compose(inverse(h), wl),) for h in hats)
            assert reps == expect
            lengths = sorted(length(r) for r in reps)
            assert lengths == sorted(perm_length(wl) + k for k in range(n))

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
            w = (from_word(4, row["w"]),)
            table[w] = row
        assert set(reps) == set(table)
        for w, row in table.items():
            assert length(w) == row["length"]
            assert mul(w0, w) == (from_word(4, row["w0w"]),)
            wlam = act(w, lam)
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
    sorted, w_lambda, |W_lambda|).  The coset of w is keyed by
    the orbit point w . lam; the longest element of each coset, and of the
    stabilizer, must be unique."""
    best, tied, stabilizer = {}, {}, 0
    for w, length in weyl_group(group.degrees):
        key = act(w, lam)
        stabilizer += key == lam
        cur = best.get(key)
        if cur is None or length > cur[1]:
            best[key] = (w, length)
            tied[key] = False
        elif length == cur[1]:
            tied[key] = True
    assert not any(tied.values()), "longest coset representative was not unique"
    reps = sorted(w for w, _ in best.values())
    return reps, best[lam][0], stabilizer


@functools.cache
def weyl_group(degrees):
    """(w, length) for every w in S_{d1} x ... x S_{df}."""
    pools = [perms(d) for d in degrees]
    return [(w, length(w)) for w in itertools.product(*pools)]


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
        assert all(is_weyl(w, group) for w in got)
        assert stabilizer_parabolic(group, lam) == w_lambda
        assert is_weyl(stabilizer_parabolic(group, lam), group)
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
            self.check(g.weyl, lam)
        assert is_weyl(g.weyl.longest(), g.weyl)


class TestAction:
    def test_identity(self):
        G = WeylDescriptor((3,))
        v = (5, -1, 2)
        assert act(identity(G), v) == v
        assert act(identity(G), RatVec(v)) == RatVec(v).entries

    def test_simple_swap(self):
        G = WeylDescriptor((2,))
        assert act(simple(G, 0, 1), (3, 1)) == (1, 3)

    def test_su31_lambda_orbit(self):
        # (s2 s1) lambda_1 = lambda_3 with lambda_k = 4 e_k - sum e
        G = WeylDescriptor((3,))
        s1, s2 = simple(G, 0, 1), simple(G, 0, 2)
        assert act(mul(s2, s1), (3, -1, -1)) == (-1, -1, 3)

    def test_blockwise(self):
        w = ((2, 1), (1, 2))
        assert act(w, (1, 2, 3, 4)) == (2, 1, 3, 4)
        assert act(w, [1, 2, 3, 4]) == (2, 1, 3, 4)
        # the k-th factor moves only the k-th block: (w . v)_{w(i)} = v_i
        assert act(((2, 3, 1), (2, 1)), (7, 8, 9, 5, 6)) == (9, 7, 8, 6, 5)

    def test_text_round_trip(self):
        w = ((2, 1, 3), (1, 2))
        assert text(w) == "2 1 3|1 2"
        assert from_text(text(w)) == w
