"""Horn index triples and Horn-cone membership.

T_r^n is the recursively defined family of index triples (I, J, L) whose
inequalities cut out the spectra (a, b, c) of Hermitian triples A + B = C:
U_r^n holds the triples balanced by sum(I) + sum(J) = sum(L) + r(r+1)/2,
T_1^n = U_1^n, and for r >= 2 a triple of U_r^n belongs to T_r^n when
sum_{f in F} i_f + sum_{g in G} j_g <= sum_{h in H} l_h + p(p+1)/2 for
every p < r and every (F, G, H) in T_p^r.

`horn_member` decides the spectrum question for rational inputs, and via
saturation the same inequalities decide tensor-product containment
V_nu <= V_lam (x) V_mu for the unitary group (`lr_nonzero`).  The dual
route `triple_via_eigen` re-derives membership of a triple in T_r^n from
the spectrum test on the associated partitions.

Everything is memoized per (r, n) and enumerated in lexicographic order so
emitted files are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .exactmath import DomainError, rat

DESK_CAP = 8


@dataclass(frozen=True)
class HornTriple:
    """A triple of strictly increasing equal-cardinality index sets."""

    n: int
    I: tuple[int, ...]
    J: tuple[int, ...]
    L: tuple[int, ...]

    def __post_init__(self):
        r = len(self.I)
        if not (len(self.J) == len(self.L) == r):
            raise ValueError("index sets must have equal cardinality")
        if not 1 <= r < self.n:
            raise ValueError("need 1 <= r < n")
        for part in (self.I, self.J, self.L):
            if list(part) != sorted(set(part)) or part[0] < 1 or part[-1] > self.n:
                raise ValueError(f"not a strictly increasing subset of 1..{self.n}: {part}")

    @property
    def r(self) -> int:
        return len(self.I)

    def balanced(self) -> bool:
        r = self.r
        return sum(self.I) + sum(self.J) == sum(self.L) + r * (r + 1) // 2

    def sort_key(self):
        return (self.I, self.J, self.L)

    def to_json_obj(self):
        return {"I": list(self.I), "J": list(self.J), "L": list(self.L)}


def enum_U(r: int, n: int) -> tuple[HornTriple, ...]:
    """All balanced triples of cardinality r, lexicographic in (I, J, L)."""
    _check_bounds(r, n)
    return _balanced(r, n, [], [])


@cache
def enum_T(r: int, n: int) -> tuple[HornTriple, ...]:
    """The Horn triples T_r^n, lexicographic in (I, J, L); memoized.

    Each (F, G, H) of T_p^r, p < r, becomes one filter: the 0-based
    positions F, G and H index into a candidate's I, J and L.  Position
    sets recur across the filters, so each is numbered once."""
    _check_bounds(r, n)
    positions: dict[tuple[int, ...], int] = {}
    filters = []
    for p in range(1, r):
        for f in enum_T(p, r):
            a, b, c = (positions.setdefault(tuple(i - 1 for i in part), len(positions))
                       for part in (f.I, f.J, f.L))
            filters.append((a, b, c, p * (p + 1) // 2))
    return _balanced(r, n, filters, list(positions))


def _balanced(r: int, n: int, filters, positions) -> tuple[HornTriple, ...]:
    """The balanced triples of cardinality r that pass every filter
    (a, b, c, k): sum(I at positions[a]) + sum(J at positions[b]) <=
    sum(L at positions[c]) + k.  Each subset's sums over every position set
    are worked out once, and a candidate stops at its first failing filter.
    I and J run over `combinations`, which is lexicographic, and each sum's
    bucket of L keeps that order, so the triples need no sort."""
    subsets = list(itertools.combinations(range(1, n + 1), r))
    sums = {S: [sum(S[i] for i in P) for P in positions] for S in subsets}
    shift = r * (r + 1) // 2
    by_sum: dict[int, list] = {}
    for L in subsets:
        by_sum.setdefault(sum(L), []).append(L)
    out = []
    for I in subsets:
        sI = sums[I]
        for J in subsets:
            sJ = sums[J]
            for L in by_sum.get(sum(I) + sum(J) - shift, ()):
                sL = sums[L]
                for a, b, c, k in filters:
                    if sI[a] + sJ[b] > sL[c] + k:
                        break
                else:
                    out.append(HornTriple(n, I, J, L))
    return tuple(out)


def _check_bounds(r: int, n: int):
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    if n > DESK_CAP:
        raise DomainError(f"n={n} exceeds the desk cap {DESK_CAP}")


def _spectrum(values: Sequence) -> tuple:
    """values as rationals; ValueError unless they are weakly decreasing."""
    vals = tuple(rat(v) for v in values)
    if any(a < b for a, b in zip(vals, vals[1:])):
        raise ValueError(f"not weakly decreasing: {vals}")
    return vals


def horn_member(alpha, beta, gamma) -> bool:
    """True iff (alpha, beta, gamma) are spectra of Hermitian A + B = C.

    Requires the trace equality and every T_r^n inequality; inputs may be
    any weakly decreasing rational sequences of one common length.
    """
    a, b, c = _spectrum(alpha), _spectrum(beta), _spectrum(gamma)
    n = len(a)
    if not len(b) == len(c) == n:
        raise ValueError("spectra must have equal lengths")
    if sum(a) + sum(b) != sum(c):
        return False
    for r in range(1, n):
        for t in enum_T(r, n):
            lhs = sum(a[i - 1] for i in t.I) + sum(b[j - 1] for j in t.J)
            if lhs < sum(c[k - 1] for k in t.L):
                return False
    return True


def lr_nonzero(lam, mu, nu) -> bool:
    """True iff V_nu appears in V_lam (x) V_mu for the unitary group.

    Valid through the saturation property of GL_n: tensor containment at
    some positive multiple already implies it on the nose, which makes the
    Horn inequalities an exact criterion for integer highest weights.
    """
    for spec in (lam, mu, nu):
        for v in spec:
            if rat(v).denominator != 1:
                raise ValueError("lr_nonzero expects integer weights")
    return horn_member(lam, mu, nu)


def partition_of(index_set: Sequence[int]) -> tuple[int, ...]:
    """lambda(I) = (i_r - r >= ... >= i_2 - 2 >= i_1 - 1) for I increasing."""
    idx = list(index_set)
    r = len(idx)
    return tuple(idx[r - 1 - k] - (r - k) for k in range(r))


def triple_via_eigen(t: HornTriple) -> bool:
    """Membership test of Theorem-style duality: (I, J, L) lies in T_r^n
    exactly when (lambda(I), lambda(J), lambda(L)) is an admissible
    Hermitian spectrum triple at size r."""
    lam_i = partition_of(t.I)
    lam_j = partition_of(t.J)
    lam_l = partition_of(t.L)
    if t.r == 1:
        # Size-1 spectra: only the trace condition is in play.
        return lam_i[0] + lam_j[0] == lam_l[0]
    return horn_member(lam_i, lam_j, lam_l)


def family_bar(I: Sequence[int], n: int) -> tuple[int, ...]:
    """Ibar = { n - i + 1 : i in I }."""
    return tuple(sorted(n - i + 1 for i in I))


def family_L(r: int, n: int) -> tuple[int, ...]:
    """L_r^n = { n-r+1, ..., n }."""
    return tuple(range(n - r + 1, n + 1))


def family_bar_star(I: Sequence[int], n: int) -> tuple[int, ...]:
    """Ibar* = {1} u { n - i + 2 : i in I, i > 1 }; requires 1 in I."""
    if 1 not in I:
        raise ValueError("family_bar_star needs 1 in I")
    return tuple(sorted([1] + [n - i + 2 for i in I if i != 1]))


def family_L_tilde(r: int, n: int) -> tuple[int, ...]:
    """Ltilde_r^n = {1, n-r+2, ..., n}."""
    return tuple([1] + list(range(n - r + 2, n + 1)))
