"""Exact rational vectors, affine inequality systems and linear programming.

Values are exact rationals; there is no floating point anywhere.  The
three public data types:

  RatVec       -- an immutable vector of Fractions: a point (Lambda, mu,
                  xi, a witness); roots, cocharacters and their Weyl orbit
                  points are tuples of ints and meet a point through `_dot`,
  AffineIneq   -- one constraint <a, x> <= b  or  <a, x> = b, held with a
                  primitive integer normal a and a Fraction bound b,
  HPolyhedron  -- a finite system of such constraints in a fixed dimension.

On top of these the module provides an exact feasibility / optimization
solver (a dense simplex with Bland's rule) and the derived predicates
`implies`, `implies_all`, `remove_redundant` and `poly_equal`.

All exact elimination lives here, and all pivoting goes through one
fraction-free kernel, `_pivot`.  It keeps each row as Python ints over one
positive row denominator (the rational row is ints / den), pivots by the
integer combination piv*row - f*prow and divides out the gcd, in the manner
of Bareiss's integer-preserving elimination and the integer pivoting of
lrs.  The rationals it represents are exactly those of Gauss-Jordan over
Fraction, so Bland's rule takes the same pivots and every witness is the
same.  Its two users are the simplex tableau (`_simplex_le`) and
`row_reduce`, the single Gauss-Jordan routine, which the equality
substitution and the admissible-cocharacter kernels and ranks
(admissible.py) call; `_Substitution` reduces each further row with the
kernel's elimination step, `_eliminate`.  Inside the layer a row is only
ever integers over a reduced row denominator: `row_reduce` returns such
rows and `_Substitution` hands them on to the tableau.  Fractions are made
only for what leaves it: witness points, optimal values, multipliers and
edges.  A row's normal is already integers: `_solve` takes the row as its
integer row, normal and bound times the bound's denominator
(`AffineIneq.integer_row`), and the frame below takes its normal as it is.

Each step of an LP has one home.  `_Substitution` is the only equality
elimination: `_solve` (so `lp_witness` and `lp_feasible`) and
`_Frame` build their LP rows with it and map its free values back with
it.  `_Final`, beside `_simplex_le`, is the only reader of the final
tableau: the multipliers, the tight rows, the variables that did not move
and the unbounded edge.

The predicates share one implication LP, `_Frame.lp`.  A batch of
implication tests on a system starts from one point x0 of it: the caller's
known point if it satisfies every row, else the point `lp_witness` finds
with the same single LP `lp_feasible` solves.  In the frame x = x0 + z
every <= row's bound is its slack at x0, which is >= 0, so the slack basis
is feasible and no LP of the batch has a phase 1; equalities become
homogeneous and are substituted once per equality set, not once per LP;
and each phase-2 run stops as soon as the objective passes the tested
row's slack, or proves it unbounded.  x0 lies in every subsystem of the
system, so `remove_redundant` tests all its candidates with one point.
`_solve` only decides feasibility: `lp_witness`, `lp_feasible` and the
Horn oracle read its phase-1 point from the origin.  `lp_max` in
tests/reference.py runs the same substitution and simplex with an
objective in phase 2, and tests/test_lp_path.py pins that pivot path.

`remove_redundant` proves each decision with a certificate that later
systems with the same normals can reuse (certificates.py), read off the
same implication LP.  One key, the normal and the kind, rules it: of the
rows of a key only the tightest is ever tested.

The empty polyhedron has the distinguished canonical form { 0 <= -1 }.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

LE = "le"
EQ = "eq"


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


def rat_str(x: Fraction) -> str:
    """Serialize a Fraction as 'p' or 'p/q' (q > 1)."""
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _int_row(values) -> tuple:
    """Rationals (ints or Fractions) as (integers, positive denominator):
    the denominator is the lcm of theirs, so the two share no factor."""
    den = 1
    for a in values:
        d = a.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return [a.numerator for a in values], 1
    return [a.numerator * (den // a.denominator) for a in values], den


class RatVec:
    """An immutable rational point; its one operation is the scalar
    product."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        self.entries = tuple(rat(e) for e in entries)
        if len(self.entries) < 1:
            raise ValueError("RatVec needs dimension >= 1")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, RatVec) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RatVec(%s)" % ", ".join(rat_str(e) for e in self.entries)

    def _check(self, other: "RatVec"):
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def dot(self, other: "RatVec") -> Fraction:
        """Exact scalar product, summed as one integer fraction num/den."""
        self._check(other)
        num, den = 0, 1
        for a, b in zip(self.entries, other.entries):
            d = a.denominator * b.denominator
            if d == 1:
                num += a.numerator * b.numerator * den
            else:
                num = num * d + a.numerator * b.numerator * den
                den *= d
        return Fraction(num, den)


class DimensionError(ValueError):
    """Raised when vectors or constraints of unequal dimension are mixed."""


def check_dim(x: RatVec, dim: int) -> None:
    """DimensionError unless the point x lies in a space of dimension dim."""
    if x.dim != dim:
        raise DimensionError(f"point dim {x.dim} vs system dim {dim}")


class DomainError(ValueError):
    """An argument violates a documented precondition (wrong chamber, wrong
    trace, no closed form for the family/rank, a request past a size cap,
    ...)."""


def _dot(normal: tuple, x: RatVec) -> tuple:
    """<normal, x> for an integer normal, as an integer fraction (num, den)
    with den > 0, summed over one denominator as `RatVec.dot` sums."""
    num, den = 0, 1
    for a, b in zip(normal, x.entries):
        if a:
            d = b.denominator
            if d == 1:
                num += a * b.numerator * den
            else:
                num = num * d + a * b.numerator * den
                den *= d
    return num, den


class AffineIneq:
    """One affine constraint <normal, x> (<=|=) bound, held in its one
    canonical form from the moment it is built.

    The constructor takes rationals and scales the row by a positive
    rational so that `normal` is a tuple of coprime ints; `bound` is a
    Fraction.  An equality's first nonzero entry is positive.  A zero
    normal is only kept for the degenerate rows 0 <= 0, 0 = 0 and the
    infeasible marker 0 <= -1.  So rows are equal exactly when they are
    positive multiples of each other (any nonzero multiples, for
    equalities), and rows with one normal and kind differ only in the
    bound.  `_canonical_row` makes a row the engine built canonical already.
    A row is a value, hashed by its fields: nothing assigns to them after
    it is built.
    """

    __slots__ = ("normal", "bound", "kind")

    def __init__(self, normal, bound, kind: str = LE):
        if kind not in (LE, EQ):
            raise ValueError(f"kind must be {LE!r} or {EQ!r}")
        ints, den = _int_row([rat(a) for a in normal])
        bound = rat(bound)
        g = gcd(*ints)
        if g == 0:  # 0 <= b or 0 = b holds, or the row is the marker
            holds = bound == 0 or (bound > 0 and kind == LE)
            bound, kind = (Fraction(0), kind) if holds else (Fraction(-1), LE)
        else:
            if kind == EQ and next(a for a in ints if a) < 0:
                g = -g
            ints, bound = [a // g for a in ints], bound * den / g
        self.normal, self.bound, self.kind = tuple(ints), bound, kind

    def __eq__(self, other):
        if other.__class__ is not AffineIneq:
            return NotImplemented
        return (self.normal, self.bound, self.kind) == (other.normal, other.bound, other.kind)

    def __hash__(self):
        return hash((self.normal, self.bound, self.kind))

    def __repr__(self):
        return f"AffineIneq(normal={self.normal!r}, bound={self.bound!r}, kind={self.kind!r})"

    @property
    def dim(self) -> int:
        return len(self.normal)

    def integer_row(self) -> tuple:
        """(normal, bound) times the bound's denominator: the row as coprime
        integers, the form it is printed in and `lp_witness` solves."""
        q = self.bound.denominator
        return (self.normal if q == 1 else tuple(a * q for a in self.normal)), self.bound.numerator

    def is_trivial(self) -> bool:
        """0 <= 0 or 0 = 0."""
        return self.bound == 0 and not any(self.normal)

    def _excess(self, x: RatVec) -> tuple:
        """<normal, x> - bound as an integer fraction (num, den), den > 0."""
        num, den = _dot(self.normal, x)
        q = self.bound.denominator
        return num * q - self.bound.numerator * den, den * q

    def satisfied_by(self, x: RatVec) -> bool:
        excess, _ = self._excess(x)
        return excess == 0 if self.kind == EQ else excess <= 0

    def to_json_obj(self) -> dict:
        """The JSON wire form of one row, its integer row: {"a": normal,
        "b": bound, "eq": is equality}."""
        normal, bound = self.integer_row()
        return {"a": [str(a) for a in normal], "b": str(bound), "eq": self.kind == EQ}


def _canonical_row(normal: tuple, bound: Fraction, kind: str) -> AffineIneq:
    """The row of a normal, bound and kind that are canonical already (as
    `polytope._LinearRows` builds them), without the constructor's scaling."""
    row = object.__new__(AffineIneq)
    row.normal, row.bound, row.kind = normal, bound, kind
    return row


def ineq_le(coeffs: Sequence, bound) -> AffineIneq:
    return AffineIneq(coeffs, bound, LE)


def ineq_ge(coeffs: Sequence, bound) -> AffineIneq:
    """<coeffs, x> >= bound stored as <-coeffs, x> <= -bound."""
    return AffineIneq([-rat(a) for a in coeffs], -rat(bound), LE)


def ineq_eq(coeffs: Sequence, bound) -> AffineIneq:
    return AffineIneq(coeffs, bound, EQ)


class HPolyhedron:
    """A finite inequality system in a fixed dimension.

    Construction drops trivial rows and removes duplicates while preserving
    first-occurrence order; rows are canonical as built, so duplicates are
    equal rows.  The point set is unchanged by any of this.
    """

    __slots__ = ("dim", "ineqs")

    def __init__(self, dim: int, ineqs: Iterable[AffineIneq]):
        if dim < 1:
            raise DimensionError("dimension must be >= 1")
        self.dim = dim
        rows: dict = {}  # the first of equal rows is kept
        for row in ineqs:
            if row.dim != dim:
                raise DimensionError(f"constraint dim {row.dim} in system dim {dim}")
            if not row.is_trivial():
                rows.setdefault(row)
        self.ineqs = tuple(rows)

    @staticmethod
    def empty(dim: int) -> "HPolyhedron":
        """The distinguished canonical infeasible system {0 <= -1}."""
        return HPolyhedron(dim, [AffineIneq((0,) * dim, -1)])

    def contains(self, x: RatVec) -> bool:
        check_dim(x, self.dim)
        return all(row.satisfied_by(x) for row in self.ineqs)

    def __eq__(self, other):
        # Syntactic equality of canonical rows (as sets); semantic equality
        # is poly_equal.
        return (
            isinstance(other, HPolyhedron)
            and self.dim == other.dim
            and set(self.ineqs) == set(other.ineqs)
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.ineqs)))

    def __repr__(self):
        return f"HPolyhedron(dim={self.dim}, {len(self.ineqs)} rows)"

    # -- JSON wire format ------------------------------------------------
    def to_json_obj(self) -> dict:
        return {"dim": self.dim, "ineqs": [row.to_json_obj() for row in self.ineqs]}

    @staticmethod
    def from_json_obj(obj: dict) -> "HPolyhedron":
        dim = int(obj["dim"])
        rows = [
            AffineIneq([Fraction(s) for s in rec["a"]], Fraction(rec["b"]),
                       EQ if rec.get("eq", False) else LE)
            for rec in obj["ineqs"]
        ]
        return HPolyhedron(dim, rows)


# ---------------------------------------------------------------------------
# The integer pivot kernel, Gauss-Jordan elimination and equality substitution
# ---------------------------------------------------------------------------


def _reduce(ints: list, den: int) -> tuple:
    """Divide an integer row and its denominator by their gcd, accumulated
    entry by entry and abandoned as soon as it reaches 1."""
    if den == 1:
        return ints, 1
    g = den
    for a in ints:
        if a:
            g = gcd(g, a)
            if g == 1:
                return ints, den
    return [a // g for a in ints], den // g


def _eliminate(row: list, den: int, prow: list, col: int) -> tuple:
    """Clear column `col` of the rational row row/den with the pivot row
    prow (prow[col] > 0): the integer combination piv*row - f*prow over
    den*piv, reduced."""
    piv = prow[col]
    f = row[col]
    if piv == 1:
        return _reduce([a - f * p for a, p in zip(row, prow)], den)
    return _reduce([piv * a - f * p for a, p in zip(row, prow)], den * piv)


def _pivot(rows: list, dens: list, i: int, col: int) -> None:
    """The one pivot kernel.  Row k stands for the rational row
    rows[k] / dens[k] (dens[k] > 0).  Scale row i to 1 in column `col`,
    then clear `col` from every other row.  The represented rationals are
    exactly those of Gauss-Jordan over Fraction."""
    prow = rows[i]
    piv = prow[col]
    if piv < 0:
        prow = [-a for a in prow]
        piv = -piv
    prow, piv = _reduce(prow, piv)
    rows[i], dens[i] = prow, piv
    for k, row in enumerate(rows):
        if row[col] and k != i:
            rows[k], dens[k] = _eliminate(row, dens[k], prow, col)


def row_reduce(rows: list, order) -> tuple:
    """Gauss-Jordan elimination: (ints, dens, pivots), where reduced row k
    is the rational row ints[k] / dens[k] and pivots are the (row index,
    column) pairs in the order they were taken.

    Each row in turn pivots on its first nonzero column in `order`: it is
    scaled to a unit pivot, ints[k][col] == dens[k], and that column is
    cleared from every other row.  Rows zero on `order` take no pivot.
    Columns outside `order` (an appended bound, say) are carried along.
    The input rows are lists of equal length of ints or Fractions and are
    left as they are.  The work is done by `_pivot` on integer rows, so
    every row comes back reduced, gcd(dens[k], *ints[k]) == 1, and no
    Fraction is built.
    """
    ints, dens = [], []
    for row in rows:
        a, d = _int_row(row)
        ints.append(a)
        dens.append(d)
    pivots = []
    for i in range(len(ints)):
        row = ints[i]
        col = next((j for j in order if row[j] != 0), None)
        if col is not None:
            _pivot(ints, dens, i, col)
            pivots.append((i, col))
    return ints, dens, pivots


class _Substitution:
    """The equalities `eqs` solved for their pivot columns by `row_reduce`:
    the package's one equality elimination.  Given a point x0 of the
    system, it works in the frame x = x0 + z, where each row's bound is its
    slack at x0 and the equalities are homogeneous.

    `consistent` says whether the equalities have a solution.
    `reduce(row)` is a row [normal..., bound] over the free columns with
    the equalities substituted, as integers and their reduced denominator
    (once per row, memoised by id); `program(rows)` the LP rows of the <=
    rows; and `lift(y)` the full vector of Fractions with free values y on
    which every equality holds: a point, or, in the frame of x0, a
    direction.  The rows are integer rows from `row_reduce` to the tableau,
    and the rationals they stand for are those Gauss-Jordan gives.
    """

    def __init__(self, eqs: list, dim: int, x0: Optional[RatVec] = None):
        self.eqs = eqs  # holds the rows whose ids key memos of this object
        self.x0 = x0
        # A positive row denominator does not change the reduced rows.
        ints, _, pivots = row_reduce([self._row(r)[0] for r in eqs], range(dim))
        self.pivot_rows = [i for i, _ in pivots]
        # Each pivot row as integers e over its denominator e[col] > 0.
        self.pivots = [(col, ints[i]) for i, col in pivots]
        taken = set(self.pivot_rows)
        self.consistent = all(row[-1] == 0 for i, row in enumerate(ints) if i not in taken)
        pivot_cols = {col for _, col in pivots}
        self.free_cols = [j for j in range(dim) if j not in pivot_cols]
        self.nfree = len(self.free_cols)
        self.dim = dim
        self._reduced: dict = {}

    def _row(self, row: AffineIneq) -> tuple:
        """[normal..., bound] as integers over a reduced denominator.
        Without x0 it is the integer row (`AffineIneq.integer_row`): phase
        1 weighs each row by its scale, and this is the scale it runs at.
        In the frame of x0 the bound is the slack at x0, no LP has a phase
        1, and the row keeps its normal, so the final tableau's multipliers
        are per normal."""
        if self.x0 is None:
            normal, bound = row.integer_row()
            return [*normal, bound], 1
        excess, den = row._excess(self.x0)
        return _reduce([*(a * den for a in row.normal), -excess], den)

    def reduce(self, row: AffineIneq) -> tuple:
        entry = self._reduced.get(id(row))
        if entry is None:
            a, den = self._row(row)
            for col, e in self.pivots:
                if a[col]:
                    a, den = _eliminate(a, den, e, col)
            # The pivot columns are 0 now, so the row stays reduced.
            reduced = [a[j] for j in (*self.free_cols, self.dim)], den
            entry = self._reduced[id(row)] = (row, reduced)
        return entry[1]

    def program(self, rows) -> Optional[tuple]:
        """(LP rows, their source rows): the <= rows of `rows` reduced,
        leaving out those whose normal vanishes.  None when the system is
        infeasible: the equalities are inconsistent, or a row left out has a
        negative bound.  With no free column every normal vanishes, so the
        LP has no rows."""
        if not self.consistent:
            return None
        lp_rows, sources = [], []
        for r in rows:
            if r.kind == LE:
                reduced = self.reduce(r)
                if any(reduced[0][:-1]):
                    lp_rows.append(reduced)
                    sources.append(r)
                elif reduced[0][-1] < 0:
                    return None
        return lp_rows, sources

    def lift(self, y: Sequence) -> list:
        full = [Fraction(0)] * self.dim
        for j, col in enumerate(self.free_cols):
            full[col] = y[j]
        for col, e in self.pivots:
            full[col] = (e[-1] - sum((e[j] * full[j] for j in self.free_cols), Fraction(0))) / e[col]
        return full


# ---------------------------------------------------------------------------
# Exact simplex
# ---------------------------------------------------------------------------

INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"


def _simplex_le(rows, nvars: int, objective, stop: Optional[Fraction] = None):
    """Maximize <objective, x> over {rows: <a,x> <= b} with x free.

    rows and objective: integer rows (ints, den) as `_Substitution` gives
    them, each row [coefficients..., bound] with a nonzero normal.  Returns
    (status, x, final) with status in {INFEASIBLE, UNBOUNDED, OPTIMAL}; for
    UNBOUNDED x is a feasible point.  Free variables are split x = u - v
    internally.  Bland's rule everywhere, so termination is guaranteed.  The
    tableau is kept as integer rows over positive row denominators and
    pivoted by `_pivot`.  With `stop`, phase 2 ends as soon as the objective
    exceeds it, with status UNBOUNDED: the objective is not bounded by
    `stop`.  `final` reads the tableau the run ended with (`_Final`); it is
    None when the LP is infeasible.
    """
    m = len(rows)
    if m == 0:
        status = OPTIMAL if not any(objective[0]) else UNBOUNDED
        return status, [Fraction(0)] * nvars, _Final(None, None, [], nvars, None, objective)

    # Columns: u_1..u_n, v_1..v_n, s_1..s_m, one artificial per row with a
    # negative bound, then the bound.  Row m is the reduced-cost row.
    n_struct = 2 * nvars + m
    art_col = {}
    for i, (ints, _) in enumerate(rows):
        if ints[-1] < 0:
            art_col[i] = n_struct + len(art_col)
    n_total = n_struct + len(art_col)
    tableau, dens, basis = [], [], []
    for i, (ints, den) in enumerate(rows):
        row = [0] * (n_total + 1)
        row[:nvars] = ints[:-1]
        row[nvars : 2 * nvars] = [-a for a in ints[:-1]]
        row[2 * nvars + i] = den
        row[-1] = ints[-1]
        if i in art_col:
            row = [-a for a in row]
            row[art_col[i]] = den
            basis.append(art_col[i])
        else:
            basis.append(2 * nvars + i)
        tableau.append(row)
        dens.append(den)
    tableau.append(None)
    dens.append(1)
    ray = None  # the entering column that proved the objective unbounded

    def run(cost: list, cost_den: int, ncols: int, stop=None) -> bool:
        """Maximize the cost (integers over cost_den) over the columns;
        only the first `ncols` may enter the basis.  Bland's rule; True if
        optimal, False if unbounded or, with `stop`, once the cost exceeds
        it."""
        nonlocal ray
        # Seed the reduced-cost row c_j - c_B B^-1 A_j once, reduced like
        # every row of the tableau; pivots keep it current after that.  Its
        # last entry is minus the current cost.
        obj, den = _reduce(cost + [0], cost_den)
        for i in range(m):
            if obj[basis[i]]:
                obj, den = _eliminate(obj, den, tableau[i], basis[i])
        tableau[m], dens[m] = obj, den
        while True:
            objrow = tableau[m]
            if stop is not None and -objrow[-1] * stop.denominator > stop.numerator * dens[m]:
                return False
            entering = next((j for j in range(ncols) if objrow[j] > 0), None)
            if entering is None:
                return True
            # Ratio test on b_i / a_i (the row denominators cancel).
            leaving = None
            for i in range(m):
                a = tableau[i][entering]
                if a > 0:
                    b = tableau[i][-1]
                    if leaving is None:
                        leaving, best_b, best_a = i, b, a
                        continue
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving, best_b, best_a = i, b, a
            if leaving is None:
                ray = entering
                return False
            _pivot(tableau, dens, leaving, entering)
            basis[leaving] = entering

    if art_col:
        run([0] * n_struct + [-1] * len(art_col), 1, n_total)
        # The phase-1 optimum is minus the sum of the basic artificials.
        if any(basis[i] >= n_struct and tableau[i][-1] for i in range(m)):
            return INFEASIBLE, None, None
        # Drive remaining artificials out of the basis (they sit at value 0).
        for i in range(m):
            if basis[i] >= n_struct:
                row = tableau[i]
                j = next((jj for jj in range(n_struct) if row[jj] != 0), None)
                if j is not None:
                    _pivot(tableau, dens, i, j)
                    basis[i] = j
        # Any row still basic in an artificial is all-zero in structurals:
        # redundant; artificials never re-enter below.

    obj, obj_den = objective
    bounded = run(obj + [-a for a in obj] + [0] * (n_total - 2 * nvars), obj_den, n_struct, stop)
    x = [Fraction(0)] * nvars
    for i in range(m):
        bj = basis[i]
        if bj < 2 * nvars:
            value = Fraction(tableau[i][-1], dens[i])
            if bj < nvars:
                x[bj] += value
            else:
                x[bj - nvars] -= value
    return (OPTIMAL if bounded else UNBOUNDED), x, _Final(tableau, dens, basis, nvars, ray, objective)


class _Final:
    """The tableau a `_simplex_le` run ended with, read in terms of its LP:
    rows <a_p, x> <= b_p, p < m, over n free variables.  Only `_simplex_le`
    and this reader know the column layout: u_1..u_n, v_1..v_n with
    x = u - v, the slacks s_1..s_m, the artificials, then the bound; the
    reduced-cost row comes last.  Without rows no tableau was built, and
    `tableau` is None.  `objective` is the LP's, as (ints, den)."""

    __slots__ = ("tableau", "dens", "basis", "nvars", "entering", "objective")

    def __init__(self, tableau, dens, basis: list, nvars: int, entering, objective):
        self.tableau, self.dens, self.basis = tableau, dens, basis
        self.nvars, self.entering, self.objective = nvars, entering, objective

    def multipliers(self) -> list:
        """(p, y_p) for each LP row with y_p != 0, where, after an optimal
        run, y >= 0 and sum y_p a_p is the objective: minus the reduced
        costs of the slack columns."""
        if self.tableau is None:
            return []
        n, m = self.nvars, len(self.basis)
        costs, den = self.tableau[m], self.dens[m]
        return [(p, Fraction(-y, den)) for p, y in enumerate(costs[2 * n : 2 * n + m]) if y]

    def tight(self) -> list:
        """The LP rows whose slack is nonbasic: they hold with equality at
        the final vertex."""
        offset, basic = 2 * self.nvars, set(self.basis)
        return [p for p in range(len(self.basis)) if offset + p not in basic]

    def unmoved(self) -> list:
        """The variables neither of whose halves is basic: they are 0 at
        the final vertex."""
        n = self.nvars
        moved = {col % n for col in self.basis if col < 2 * n}
        return [j for j in range(n) if j not in moved]

    def edge(self) -> Optional[list]:
        """The direction over the variables along which the objective grows
        without bound: the entering column's edge, or the objective itself
        when the LP had no rows.  None when the run did not prove the
        objective unbounded."""
        if self.tableau is None:
            ints, den = self.objective
            return [Fraction(a, den) for a in ints] if any(ints) else None
        entering = self.entering
        if entering is None:
            return None
        n = self.nvars
        z = [Fraction(0)] * n
        if entering < 2 * n:
            z[entering % n] += 1 if entering < n else -1
        for r, col in enumerate(self.basis):
            if col < 2 * n and self.tableau[r][entering]:
                rate = Fraction(-self.tableau[r][entering], self.dens[r])
                z[col % n] += rate if col < n else -rate
        return z


def _solve(sys: HPolyhedron) -> Optional[RatVec]:
    """A point of sys, the phase-1 witness from the origin, or None when
    sys is infeasible."""
    sub = _Substitution([r for r in sys.ineqs if r.kind == EQ], sys.dim)
    program = sub.program(sys.ineqs)
    if program is None:
        return None
    status, y, _ = _simplex_le(program[0], sub.nfree, ([0] * sub.nfree, 1))
    return None if status == INFEASIBLE else RatVec(sub.lift(y))


def lp_feasible(sys: HPolyhedron) -> bool:
    """Exact feasibility of a rational inequality system."""
    return _solve(sys) is not None


def lp_witness(sys: HPolyhedron) -> Optional[RatVec]:
    """A rational point of sys, or None if infeasible."""
    return _solve(sys)


def _signs(kind: str) -> tuple:
    """The directions a row is tested in: <= once, = both ways."""
    return (1,) if kind == LE else (1, -1)


class _Frame:
    """The implication tests at a point x0: `implied(rows, row)` is True iff
    every point of the system `rows` satisfies `row`.  Every row of `rows`
    must hold at x0, so one frame serves every subsystem of a system x0
    lies in.

    In the frame x = x0 + z a <= row reads <a, z> <= b - <a, x0>, whose
    bound (the slack at x0) is >= 0, and an equality reads <a, z> = 0.  So
    the slack basis is feasible and `_simplex_le` never builds artificials;
    the equalities are substituted once per equality set, each normal is
    reduced once per set, and each run stops as soon as <a, z> exceeds the
    tested row's slack.
    """

    def __init__(self, x0: RatVec):
        self.x0 = x0
        self._substitutions: dict = {}  # keyed by the ids of the equalities

    def lp(self, rows, row: AffineIneq, sign: int) -> tuple:
        """The implication LP of `row` against the system `rows`: maximise
        sign * <normal, z>, stopping once it passes the row's slack.
        Returns (bounded, substitution, source row of each LP row, final
        tableau reader)."""
        eqs = [r for r in rows if r.kind == EQ]
        key = tuple(map(id, eqs))
        sub = self._substitutions.get(key)
        if sub is None:
            sub = self._substitutions[key] = _Substitution(eqs, self.x0.dim, self.x0)
        lp_rows, sources = sub.program(rows)
        (*a, t), den = sub.reduce(row)
        objective = ([sign * c for c in a], den)
        status, _, final = _simplex_le(lp_rows, sub.nfree, objective, Fraction(t, den))
        return status == OPTIMAL, sub, sources, final

    def implied(self, rows, row: AffineIneq) -> bool:
        excess, _ = row._excess(self.x0)
        if excess > 0 or (row.kind == EQ and excess):
            return False
        return all(self.lp(rows, row, sign)[0] for sign in _signs(row.kind))


def implies_all(sys: HPolyhedron, rows: Iterable[AffineIneq]) -> bool:
    """True iff every point of sys satisfies every row of `rows` (vacuously
    if sys is empty): one witness LP, then one phase-2 LP per row."""
    rows = list(rows)
    if any(row.dim != sys.dim for row in rows):
        raise DimensionError("constraint dimension mismatch")
    x0 = lp_witness(sys)
    if x0 is None:
        return True
    frame = _Frame(x0)
    return all(frame.implied(sys.ineqs, row) for row in rows)


def implies(sys: HPolyhedron, row: AffineIneq) -> bool:
    """True iff every point of sys satisfies `row` (vacuously if empty)."""
    return implies_all(sys, [row])


def remove_redundant(
    sys: HPolyhedron, known: Optional[RatVec] = None, store: Optional["CertificateStore"] = None
) -> HPolyhedron:
    """Drop every constraint implied by the others.

    The result defines the same point set; infeasible input collapses to
    the canonical empty system.  Idempotent.  Rows are visited in order; a
    row is dropped when the rows still kept, without it, imply it.

    `known` is a point of sys, if the caller has one; it is checked, and a
    witness LP finds a point when it is missing or fails a row.  One key
    rules the decisions: rows whose normals and kinds agree (x <= 3 and
    2x <= 7, say) are one key, and only its row with the least slack at
    that point is tested; the others are implied by it and go at once
    (`certificates._Rows`).  Each decision first tries the certificates in
    `store` (a fresh store when none is given) and only then solves the
    implication LP, whose certificate it adds to the store.
    """
    # certificates.py builds on this module, so it is imported here.
    from .certificates import CertificateStore, _Rows

    rows = sys.ineqs
    if known is not None:
        check_dim(known, sys.dim)
    checked = _Rows(rows, known) if known is not None else None
    if checked is None or not checked.feasible:
        x0 = lp_witness(sys)
        if x0 is None:
            return HPolyhedron.empty(sys.dim)
        checked = _Rows(rows, x0)
    store = CertificateStore() if store is None else store
    for i, row in enumerate(rows):
        if checked.alive[i]:
            checked.alive[i] = False
            checked.alive[i] = not all(store.bounded(checked, i, sign) for sign in _signs(row.kind))
    return _canonical_system(sys.dim, [r for r, alive in zip(rows, checked.alive) if alive])


def _canonical_system(dim: int, rows: list[AffineIneq]) -> HPolyhedron:
    """The system of `rows`, which are nontrivial and distinct already (a
    subsequence of a system's rows, say), so the constructor's filtering
    and deduplication are skipped."""
    sub = object.__new__(HPolyhedron)
    sub.dim = dim
    sub.ineqs = tuple(rows)
    return sub


def poly_equal(p: HPolyhedron, q: HPolyhedron) -> bool:
    """Same point set: each system's rows are implied by the other.

    Rows whose canonical forms coincide on both sides are implied for
    free; only the symmetric difference goes through the LP.
    """
    if p.dim != q.dim:
        raise DimensionError("comparing systems of different dimension")
    p_point = lp_witness(p)
    q_point = lp_witness(q)
    if p_point is None or q_point is None:
        return (p_point is None) == (q_point is None)
    common = set(p.ineqs) & set(q.ineqs)
    in_p, in_q = _Frame(p_point), _Frame(q_point)
    return all(in_p.implied(p.ineqs, r) for r in q.ineqs if r not in common) and all(
        in_q.implied(q.ineqs, r) for r in p.ineqs if r not in common
    )
