"""Dominant, indivisible, admissible one-parameter subgroups.

A one-parameter subgroup of the maximal torus is an integer vector lam in
the coordinates of the group data, a tuple of ints like the roots.  It is
admissible (for the compact group acting on the negative off-diagonal
part) when its line is exactly the common kernel of dim(t) - 1 linearly
independent noncompact positive roots; dominant when it lies in the
group's chamber `GroupData.chamber`; indivisible when its entries have
gcd 1.  The chamber tests the simple compact roots only: every compact
positive root is a nonnegative integer combination of them, so pairing
>= 0 with the simple ones is pairing >= 0 with all.

`enumerate_admissible` runs the generic hyperplane-intersection algorithm,
the one route assembly uses.  Each candidate is the kernel line of
dim(t) - 1 independent noncompact roots, so it is admissible by
construction and the scan keeps it on dominance alone, with no recount of
the roots vanishing on it (the argument is in its docstring).  The
admissibility predicate and the dominance test over every compact positive
root live in `tests/reference.py`: the tests check both on every kernel
line of the groups they scan, and compare the scan as a set with the
literal per-family lists (`closed_form_admissible`) across the supported
desk-scale ranges.  Kernel lines come from `exactmath.row_reduce`, the
package's one Gauss-Jordan routine; kernel generators are read off its
integer rows as tuples of ints and divided by their gcd, and each is
tested against the chamber as a `RatVec` point.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Optional

from .exactmath import EQ, DomainError, RatVec, row_reduce
from .rootdata import GroupData

SUBSET_CAP = 10**5


class OneParamSubgroup:
    """An indivisible integer cocharacter vector: `coords` is a nonempty
    tuple of ints of gcd 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("one-parameter subgroup needs dimension >= 1")
        if not all(isinstance(c, int) for c in coords):
            raise ValueError("one-parameter subgroup needs integer coordinates")
        if gcd(*coords) != 1:
            raise ValueError(f"not indivisible: {coords}")
        self.coords = coords

    def __eq__(self, other):
        return isinstance(other, OneParamSubgroup) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"OneParamSubgroup({self.coords})"


def _primitive_kernel_vector(rows: list, dim: int) -> Optional[tuple]:
    """A primitive integer generator of the kernel of the row system (rows
    of rationals: RatVecs or int tuples), as a tuple of ints, or None when
    the kernel is not a line."""
    ints, dens, pivots = row_reduce(rows, range(dim))
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
    return tuple(a // g for a in vec)


def enumerate_admissible(g: GroupData) -> set[OneParamSubgroup]:
    """All dominant indivisible admissible cocharacters, by scanning the
    full-rank (rank-1-short) subsets of the noncompact positive roots and
    taking primitive kernel generators of both signs.  The chamber's
    equality rows (the trace row for su(p, q)) join every subset, so need
    is the torus rank less one.  A rank-1 torus needs no root: its one
    empty subset leaves the whole torus line.

    Every kernel line is admissible, so only dominance, membership of the
    chamber, is checked: the need roots that cut the line out vanish on
    it, so the roots vanishing on it have rank >= need; they all lie in
    the line's orthogonal complement (inside the trace-zero space for
    su(p, q)), of dimension need, so their rank is exactly need.  Both
    signs of a line have the same vanishing roots."""
    # The scan's work per subset stays on RatVec points, as before the
    # Lie data became ints: the root rows, the chamber test and the lines
    # found, keyed by their point.  Int work there makes assemble-mix
    # faster, which the benchmark cannot take yet: it retains every answer
    # and hangs once a run uses up its su(2, 2) inputs (ROADMAP items 1
    # and 2).
    roots = [RatVec(b) for b in g.noncompact_pos]
    eqs = [row.normal for row in g.chamber.ineqs if row.kind == EQ]
    need = g.dim - len(eqs) - 1
    found: dict = {}  # point -> its int tuple
    total = 1
    for i in range(need):
        total = total * (len(roots) - i) // (i + 1)
    if total > SUBSET_CAP:
        raise DomainError(f"subset enumeration too large: C({len(roots)},{need}) = {total}")
    for subset in combinations(roots, need):
        vec = _primitive_kernel_vector(list(subset) + eqs, g.dim)
        if vec is None:
            continue
        for cand in (vec, tuple(-a for a in vec)):
            point = RatVec(cand)
            if g.chamber.contains(point):
                found[point] = cand
    return {OneParamSubgroup(cand) for cand in found.values()}


def sorted_admissible(lams) -> list[OneParamSubgroup]:
    """Deterministic ordering for output files and assembly."""
    return sorted(lams, key=lambda l: l.coords)
