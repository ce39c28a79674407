"""Horn triples, spectra membership, tensor nonvanishing.

The tensor-product assertions are cross-checked against an independent
oracle that counts lattice-word column-strict skew tableaux (the classical
combinatorial rule), implemented here and nowhere in the package.
"""

import itertools
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitope import goldens
from orbitope.exactmath import DomainError
from orbitope.horn import HornTriple, enum_T
from reference import (
    balanced,
    enum_U,
    family_bar,
    family_bar_star,
    family_L,
    family_L_tilde,
    horn_member,
    lr_nonzero,
    partition_of,
    triple_key,
    triple_via_eigen,
    triples,
)

# ---------------------------------------------------------------------------
# Reference filter: the generator sums enum_T once used
# ---------------------------------------------------------------------------


@cache
def _reference_T(r, n):
    """T_r^n as sorted (I, J, L) tuples: the balanced triples of a full
    product of r-subsets, kept when every (F, G, H) of T_p^r, p < r, gives
    sum(I_F) + sum(J_G) <= sum(L_H) + p(p+1)/2, summed by generators."""
    subsets = list(itertools.combinations(range(1, n + 1), r))
    lower = [(p, f) for p in range(1, r) for f in _reference_T(p, r)]
    out = []
    for I, J, L in itertools.product(subsets, repeat=3):
        if sum(I) + sum(J) != sum(L) + r * (r + 1) // 2:
            continue
        if all(sum(I[i - 1] for i in F_) + sum(J[j - 1] for j in G)
               <= sum(L[k - 1] for k in H) + p * (p + 1) // 2
               for p, (F_, G, H) in lower):
            out.append((I, J, L))
    return out


# ---------------------------------------------------------------------------
# Independent oracle: Littlewood-Richardson tableau counting
# ---------------------------------------------------------------------------


def _normalize(lam, mu, nu):
    """Shift the three integer weights so lam and mu are partitions and the
    trace stays balanced; containment is invariant under this."""
    c1 = -min(lam[-1], 0)
    c2 = -min(mu[-1], 0)
    lam = [x + c1 for x in lam]
    mu = [x + c2 for x in mu]
    nu = [x + c1 + c2 for x in nu]
    if nu[-1] < 0:
        return None
    return lam, mu, nu


def lr_count(lam, mu, nu) -> int:
    """Number of column-strict skew tableaux of shape nu/lam, content mu,
    whose reverse reading word (rows top to bottom, each row right to
    left) is a lattice word."""
    norm = _normalize(list(lam), list(mu), list(nu))
    if norm is None:
        return 0
    lam, mu, nu = norm
    n = len(nu)
    if any(nu[i] < lam[i] for i in range(n)):
        return 0
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    nvals = len(mu)

    # Cells in reading order: rows top to bottom, columns right to left.
    cells = []
    for row in range(n):
        for col in range(nu[row] - 1, lam[row] - 1, -1):
            cells.append((row, col))

    entries: dict[tuple, int] = {}
    counts = [0] * (nvals + 1)
    total = 0

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        row, col = cells[idx]
        right = entries.get((row, col + 1))        # filled earlier, same row
        above = entries.get((row - 1, col))        # row above is complete
        above_in_shape = row > 0 and lam[row - 1] <= col < nu[row - 1]
        for v in range(1, nvals + 1):
            if right is not None and v > right:    # rows weakly increase l-to-r
                continue
            if above_in_shape and v <= above:      # columns strictly increase
                continue
            if counts[v] + 1 > mu[v - 1]:          # content bound
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:   # lattice word
                continue
            entries[(row, col)] = v
            counts[v] += 1
            place(idx + 1)
            counts[v] -= 1
            del entries[(row, col)]

    place(0)
    return total


def lr_oracle(lam, mu, nu) -> bool:
    return lr_count(lam, mu, nu) > 0


# ---------------------------------------------------------------------------


class TestEnumT:
    def test_example_T12(self):
        rec = goldens.load("Ex1.5")
        assert list(enum_T(1, 2)) == triples(rec, 1, 2)

    def test_example_T13_T23(self):
        rec = goldens.load("Ex1.6")
        assert list(enum_T(1, 3)) == triples(rec, 1, 3)
        assert list(enum_T(2, 3)) == triples(rec, 2, 3)
        assert enum_T(2, 3) == enum_U(2, 3)

    def test_member_triple(self):
        assert HornTriple(3, (1, 3), (1, 3), (2, 3)) in enum_T(2, 3)

    def test_subset_of_U(self):
        for n in range(2, 6):
            for r in range(1, n):
                assert set(enum_T(r, n)) <= set(enum_U(r, n))

    def test_filter_matches_generator_sums(self):
        # every triple the position-sum filter keeps, against the
        # generator-sum filter over a brute-force U_r^n
        for n in range(2, 8):
            for r in range(1, n):
                assert [triple_key(t) for t in enum_T(r, n)] == _reference_T(r, n), (r, n)

    def test_lexicographic_order(self):
        # enum_U does not sort: its loops already yield (I, J, L) in order
        for n in range(2, 7):
            for r in range(1, n):
                for triples in (enum_U(r, n), enum_T(r, n)):
                    keys = [triple_key(t) for t in triples]
                    assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_bounds(self):
        with pytest.raises(ValueError):
            enum_T(0, 3)
        with pytest.raises(ValueError):
            enum_T(3, 3)
        with pytest.raises(ValueError):
            enum_T(2, 9)

    def test_desk_cap_is_domain_error(self):
        with pytest.raises(DomainError, match="n=9 exceeds the desk cap 8"):
            enum_T(1, 9)

    def test_triples_pass_the_public_check(self):
        # enum_T builds its triples without the check; each must pass it
        for n in range(2, 8):
            for r in range(1, n):
                for t in enum_T(r, n):
                    assert HornTriple(t.n, t.I, t.J, t.L) == t

    def test_triple_validation(self):
        with pytest.raises(ValueError):
            HornTriple(3, (1, 1), (1, 2), (1, 2))
        with pytest.raises(ValueError):
            HornTriple(3, (1,), (1, 2), (2,))


class TestHornMember:
    def test_rank2_examples(self):
        assert horn_member([1, 0], [1, 0], [2, 0])
        assert horn_member([0, 0, 0], [0, 0, 0], [0, 0, 0])
        assert not horn_member([1, 0], [1, 0], [1, 0])

    def test_rational_inputs(self):
        assert horn_member([F(1, 2), 0], [F(1, 2), 0], [1, 0])
        assert not horn_member([F(1, 2), 0], [F(1, 2), 0], [F(3, 2), F(-1, 2)])

    def test_not_weakly_decreasing(self):
        for spectra in (([0, 1], [1, 0], [1, 1]), ([1, 0], [F(1, 2), 1], [2, 0]),
                        ([1, 0], [1, 0], [1, 2])):
            with pytest.raises(ValueError, match="not weakly decreasing"):
                horn_member(*spectra)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            horn_member([1, 0], [1, 0, 0], [1, 0])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, data):
        n = data.draw(st.integers(2, 3))
        def spectrum():
            vals = sorted(data.draw(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n)), reverse=True)
            return vals
        a, b, c = spectrum(), spectrum(), spectrum()
        c1 = data.draw(st.integers(-3, 3))
        c2 = data.draw(st.integers(-3, 3))
        base = horn_member(a, b, c)
        shifted = horn_member([x + c1 for x in a], [x + c2 for x in b],
                              [x + c1 + c2 for x in c])
        assert base == shifted

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, data):
        n = data.draw(st.integers(2, 3))
        mk = lambda: sorted(data.draw(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n)), reverse=True)
        a, b, c = mk(), mk(), mk()
        assert horn_member(a, b, c) == horn_member(b, a, c)


class TestLRNonzero:
    def test_u2_examples(self):
        assert lr_nonzero([1, 0], [1, 0], [1, 1])
        assert lr_nonzero([1, 0], [1, 0], [2, 0])
        assert not lr_nonzero([1, 0], [1, 0], [2, 1])

    def test_cartan_component(self):
        for lam, mu in [([2, 1], [3, 0]), ([2, 1, 0], [2, 2, 1])]:
            assert lr_nonzero(lam, mu, [a + b for a, b in zip(lam, mu)])

    def test_u3_example(self):
        assert lr_nonzero([2, 1, 0], [2, 1, 0], [2, 2, 2])

    def test_integer_required(self):
        with pytest.raises(ValueError):
            lr_nonzero([F(1, 2), 0], [1, 0], [1, 0])

    def test_against_tableau_oracle_exhaustive_u2(self):
        rng = range(-2, 3)
        for l1 in rng:
            for l2 in range(-2, l1 + 1):
                for m1 in rng:
                    for m2 in range(-2, m1 + 1):
                        for n1 in rng:
                            for n2 in range(-2, n1 + 1):
                                lam, mu, nu = [l1, l2], [m1, m2], [n1, n2]
                                if sum(lam) + sum(mu) != sum(nu):
                                    continue
                                assert lr_nonzero(lam, mu, nu) == lr_oracle(lam, mu, nu), \
                                    (lam, mu, nu)

    def test_against_tableau_oracle_u3_sample(self):
        parts = [p for p in itertools.product(range(3), repeat=3)
                 if p[0] >= p[1] >= p[2]]
        for lam in parts:
            for mu in parts:
                tot = sum(lam) + sum(mu)
                for nu in itertools.product(range(5), repeat=3):
                    if nu[0] >= nu[1] >= nu[2] and sum(nu) == tot:
                        assert lr_nonzero(list(lam), list(mu), list(nu)) == \
                            lr_oracle(list(lam), list(mu), list(nu)), (lam, mu, nu)


class TestEigenDuality:
    def test_partition_of(self):
        assert partition_of([1, 3]) == (1, 0)
        assert partition_of([2, 3, 5]) == (2, 1, 1)

    def test_cross_consistency_to_n5(self):
        for n in range(2, 6):
            for r in range(1, n):
                T = set(enum_T(r, n))
                for t in enum_U(r, n):
                    assert (t in T) == triple_via_eigen(t), t

    def test_imbalanced_triple_agrees(self):
        t = HornTriple(3, (2,), (2,), (2,))
        assert not balanced(t)
        assert t not in enum_T(1, 3)
        assert not triple_via_eigen(t)

    def test_c_family_triples(self):
        for n in range(2, 8):
            for r in range(1, n):
                Tset = {(t.I, t.J, t.L) for t in enum_T(r, n)}
                for I in itertools.combinations(range(1, n + 1), r):
                    assert (I, family_bar(I, n), family_L(r, n)) in Tset
                    if 1 in I:
                        assert (I, family_bar_star(I, n), family_L_tilde(r, n)) in Tset
