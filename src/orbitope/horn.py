"""Horn index triples.

T_r^n is the recursively defined family of index triples (I, J, L) whose
inequalities cut out the spectra (a, b, c) of Hermitian triples A + B = C:
U_r^n holds the triples balanced by sum(I) + sum(J) = sum(L) + r(r+1)/2,
T_1^n = U_1^n, and for r >= 2 a triple of U_r^n belongs to T_r^n when
sum_{f in F} i_f + sum_{g in G} j_g <= sum_{h in H} l_h + p(p+1)/2 for
every p < r and every (F, G, H) in T_p^r.

The Horn oracle (`polytope._oracle_rows`) turns each triple of T_r^n into
one row, blockwise over the unitary factors.  `enum_T` is memoized per
(r, n) and enumerates in lexicographic order, so emitted files are
reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .exactmath import DomainError

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

    @classmethod
    def _valid(cls, n: int, I: tuple, J: tuple, L: tuple) -> "HornTriple":
        """The triple of subsets of 1..n that `combinations` built, so
        strictly increasing and of one cardinality r, 1 <= r < n, without
        the check."""
        t = object.__new__(cls)
        for name, value in (("n", n), ("I", I), ("J", J), ("L", L)):
            object.__setattr__(t, name, value)
        return t

    def to_json_obj(self):
        return {"I": list(self.I), "J": list(self.J), "L": list(self.L)}


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
                    out.append(HornTriple._valid(n, I, J, L))
    return tuple(out)


def _check_bounds(r: int, n: int):
    if not 1 <= r < n:
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    if n > DESK_CAP:
        raise DomainError(f"n={n} exceeds the desk cap {DESK_CAP}")
