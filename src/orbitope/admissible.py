"""Dominant, indivisible, admissible one-parameter subgroups.

A one-parameter subgroup of the maximal torus is an integer vector lam in
the coordinates of the group data.  It is admissible (for the compact
group acting on the negative off-diagonal part) when its line is exactly
the common kernel of dim(t) - 1 linearly independent noncompact positive
roots; dominant when it pairs >= 0 with every compact positive root;
indivisible when its entries have gcd 1.

`enumerate_admissible` runs the generic hyperplane-intersection algorithm,
the one route assembly uses.  The tests compare it as a set with the
literal per-family lists (`closed_form_admissible` in `tests/reference.py`)
across the supported desk-scale ranges.  Kernel lines and root-span ranks
come from `exactmath.row_reduce`, the package's one Gauss-Jordan routine;
kernel generators are read off its integer rows and divided by their gcd.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Optional

from .exactmath import DomainError, RatVec, row_reduce
from .rootdata import GroupData, pairing

SUBSET_CAP = 10**5


class OneParamSubgroup:
    """An indivisible integer cocharacter vector."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        vec = RatVec(coords)
        if not vec.is_integral():
            raise ValueError("one-parameter subgroup needs integer coordinates")
        if vec.content_gcd() != 1:
            raise ValueError(f"not indivisible: {vec!r}")
        self.coords = vec

    @property
    def dim(self) -> int:
        return self.coords.dim

    def __eq__(self, other):
        return isinstance(other, OneParamSubgroup) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"OneParamSubgroup({tuple(int(c) for c in self.coords)})"

    def ints(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.coords)


def is_dominant_ops(g: GroupData, lam: RatVec) -> bool:
    """lam pairs >= 0 with every compact positive root (the torus/SO(2)
    coordinates left unconstrained fall out automatically)."""
    return all(pairing(alpha, lam) >= 0 for alpha in g.compact_pos)


def _ambient_constraints(g: GroupData) -> list[RatVec]:
    """Extra linear constraints the cocharacter must satisfy (trace-zero
    for su(p, q) in full coordinates)."""
    if g.trace_zero:
        return [RatVec([1] * g.dim)]
    return []


def _torus_rank(g: GroupData) -> int:
    return g.dim - len(_ambient_constraints(g))


def _primitive_kernel_vector(rows: list[RatVec], dim: int) -> Optional[RatVec]:
    """A primitive integer generator of the kernel of the row system, or
    None when the kernel is not a line."""
    ints, dens, pivots = row_reduce([r.entries for r in rows], range(dim))
    if len(pivots) != dim - 1:
        return None
    pivot_cols = {col for _, col in pivots}
    free_col = next(c for c in range(dim) if c not in pivot_cols)
    # 1 at the free column, times the lcm of the pivot rows' denominators.
    den = 1
    for i, _ in pivots:
        den = den * dens[i] // gcd(den, dens[i])
    vec = [0] * dim
    vec[free_col] = den
    for i, col in pivots:
        vec[col] = -ints[i][free_col] * (den // dens[i])
    g = gcd(*vec)
    return RatVec(a // g for a in vec)


def kernel_root_span_dim(g: GroupData, lam: RatVec) -> int:
    """Rank of { b in noncompact_pos : <lam, b> = 0 } (plain matrix rank;
    the roots already lie in the torus-rank subspace for su(p, q))."""
    mat = [b.entries for b in g.noncompact_pos if pairing(lam, b) == 0]
    return len(row_reduce(mat, range(g.dim))[2])


def is_admissible(g: GroupData, lam: RatVec) -> bool:
    """The defining property: the roots vanishing on lam span a hyperplane
    of the torus (rank dim(t) - 1)."""
    return kernel_root_span_dim(g, lam) == _torus_rank(g) - 1


def enumerate_admissible(g: GroupData) -> set[OneParamSubgroup]:
    """All dominant indivisible admissible cocharacters, by scanning the
    full-rank (rank-1-short) subsets of the noncompact positive roots and
    taking primitive kernel generators of both signs.  A rank-1 torus
    needs no root: its one empty subset leaves the whole torus line."""
    roots = list(g.noncompact_pos)
    extra = _ambient_constraints(g)
    need = _torus_rank(g) - 1
    found: set[OneParamSubgroup] = set()
    total = 1
    for i in range(need):
        total = total * (len(roots) - i) // (i + 1)
    if total > SUBSET_CAP:
        raise DomainError(f"subset enumeration too large: C({len(roots)},{need}) = {total}")
    for subset in combinations(roots, need):
        vec = _primitive_kernel_vector(list(subset) + extra, g.dim)
        if vec is None:
            continue
        for cand in (vec, -vec):
            if is_dominant_ops(g, cand) and is_admissible(g, cand):
                found.add(OneParamSubgroup(cand))
    return found


def sorted_admissible(lams) -> list[OneParamSubgroup]:
    """Deterministic ordering for output files and assembly."""
    return sorted(lams, key=lambda l: l.coords.entries)
