"""Exact rational vectors, affine inequality systems and linear programming.

Values are exact rationals; there is no floating point anywhere.  The
three public data types hold Fractions:

  RatVec       -- an immutable vector of Fractions,
  AffineIneq   -- one constraint <a, x> <= b  or  <a, x> = b,
  HPolyhedron  -- a finite system of such constraints in a fixed dimension.

On top of these the module provides an exact feasibility / optimization
solver (a dense simplex with Bland's rule), the derived predicates
`implies`, `implies_all`, `remove_redundant` and `poly_equal`, and the
double description method for cones (`cone_rays`, H to V, and by polarity
`cone_hull`, V to H).

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
edges.  `cone_rays` combines integer vectors the same way, d_p*q - d_q*p
divided by the gcd; `primitive` is the single scaling of Fractions to
coprime integers.

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
same implication LP.  One key, the primitive normal and the kind, rules
it: of the rows of a key only the tightest is ever tested.

The empty polyhedron has the distinguished canonical form { 0 <= -1 }.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# The Fractions -64..64, shared so that the rows kept in answers do not
# each hold their own copies of small integers.
_SMALL_MAX = 64
_SMALL = tuple(Fraction(k) for k in range(-_SMALL_MAX, _SMALL_MAX + 1))


def _fraction(n: int) -> Fraction:
    """Fraction(n), as a shared object when n is small."""
    return _SMALL[n + _SMALL_MAX] if -_SMALL_MAX <= n <= _SMALL_MAX else Fraction(n)


def primitive(values: list) -> list:
    """Scale a list of Fractions by one positive rational to coprime
    integers (as Fractions).

    All-zero input, and input that is already coprime integers, comes back
    as the same list object.  Small results are shared Fraction objects.
    """
    ints, den = _int_row(values)
    g = gcd(*ints)
    if den == 1 and g <= 1:
        return values
    return [_fraction(a // g) for a in ints]


class RatVec:
    """Immutable rational vector."""

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

    def __add__(self, other: "RatVec") -> "RatVec":
        self._check(other)
        return RatVec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "RatVec") -> "RatVec":
        self._check(other)
        return RatVec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "RatVec":
        return RatVec(-a for a in self.entries)

    def scale(self, c) -> "RatVec":
        c = rat(c)
        return RatVec(c * a for a in self.entries)

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
        return _fraction(num) if den == 1 else Fraction(num, den)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.entries)

    def content_gcd(self) -> int:
        """gcd of the numerators of an integral vector (0 for the zero vector)."""
        g = 0
        for a in self.entries:
            if a.denominator != 1:
                raise ValueError("content_gcd needs an integral vector")
            g = gcd(g, abs(a.numerator))
        return g


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


@dataclass(frozen=True, slots=True)
class AffineIneq:
    """One affine constraint <normal, x> (<=|=) bound.

    Canonical form (see `canonical`) scales the row so all coefficients are
    integers of gcd 1; equalities are additionally sign-normalized so the
    leading nonzero coefficient is positive.  A zero normal is only kept for
    the degenerate rows 0 <= b / 0 = b.
    """

    normal: RatVec
    bound: Fraction
    kind: str = LE

    def __post_init__(self):
        object.__setattr__(self, "bound", rat(self.bound))
        if self.kind not in (LE, EQ):
            raise ValueError(f"kind must be {LE!r} or {EQ!r}")

    @property
    def dim(self) -> int:
        return self.normal.dim

    def canonical(self) -> "AffineIneq":
        """Scale by a positive rational to primitive-integer form.

        Invariant under scaling by any positive rational; equalities are
        also invariant under scaling by -1, resolved by making the leading
        nonzero coefficient positive.  A row already in canonical form is
        returned as itself.
        """
        if self.normal.is_zero():
            if self.kind == EQ:
                b = Fraction(0) if self.bound == 0 else Fraction(-1)
                kind = EQ if self.bound == 0 else LE
                return AffineIneq(RatVec([0] * self.dim), b, kind)
            # 0 <= b : trivial when b >= 0, else the infeasible marker.
            b = Fraction(0) if self.bound >= 0 else Fraction(-1)
            return AffineIneq(RatVec([0] * self.dim), b, LE)
        values = [*self.normal, self.bound]
        scaled = primitive(values)
        if self.kind == EQ and next(a for a in scaled if a != 0) < 0:
            scaled = [-a for a in scaled]
        if scaled is values:
            return self
        *normal, b = scaled
        return AffineIneq(RatVec(normal), b, self.kind)

    def is_trivial(self) -> bool:
        """0 <= b with b >= 0 or 0 = 0."""
        return self.normal.is_zero() and (self.bound >= 0 if self.kind == LE else self.bound == 0)

    def satisfied_by(self, x: RatVec) -> bool:
        v = self.normal.dot(x)
        return v == self.bound if self.kind == EQ else v <= self.bound

    def to_json_obj(self) -> dict:
        """The JSON wire form of one row: {"a": normal, "b": bound, "eq": is equality}."""
        return {"a": [rat_str(a) for a in self.normal], "b": rat_str(self.bound),
                "eq": self.kind == EQ}


def ineq_le(coeffs: Sequence, bound) -> AffineIneq:
    return AffineIneq(RatVec(coeffs), rat(bound), LE)


def ineq_ge(coeffs: Sequence, bound) -> AffineIneq:
    """<coeffs, x> >= bound stored as <-coeffs, x> <= -bound."""
    return AffineIneq(-RatVec(coeffs), -rat(bound), LE)


def ineq_eq(coeffs: Sequence, bound) -> AffineIneq:
    return AffineIneq(RatVec(coeffs), rat(bound), EQ)


class HPolyhedron:
    """A finite canonicalized inequality system in a fixed dimension.

    Construction canonicalizes every row, drops trivial rows and removes
    duplicates while preserving first-occurrence order.  The point set is
    unchanged by any of this.
    """

    __slots__ = ("dim", "ineqs")

    def __init__(self, dim: int, ineqs: Iterable[AffineIneq]):
        if dim < 1:
            raise DimensionError("dimension must be >= 1")
        self.dim = dim
        seen = set()
        rows = []
        for raw in ineqs:
            if raw.dim != dim:
                raise DimensionError(f"constraint dim {raw.dim} in system dim {dim}")
            row = raw.canonical()
            if row.is_trivial():
                continue
            key = (row.normal.entries, row.bound, row.kind)
            if key in seen:
                continue
            seen.add(key)
            rows.append(row)
        self.ineqs = tuple(rows)

    @staticmethod
    def empty(dim: int) -> "HPolyhedron":
        """The distinguished canonical infeasible system {0 <= -1}."""
        return HPolyhedron(dim, [AffineIneq(RatVec([0] * dim), Fraction(-1), LE)])

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
            AffineIneq(
                RatVec([Fraction(s) for s in rec["a"]]),
                Fraction(rec["b"]),
                EQ if rec.get("eq", False) else LE,
            )
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
        ints, _, pivots = row_reduce([[*r.normal, self.bound(r)] for r in eqs], range(dim))
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

    def bound(self, row: AffineIneq) -> Fraction:
        return row.bound if self.x0 is None else row.bound - row.normal.dot(self.x0)

    def reduce(self, row: AffineIneq) -> tuple:
        entry = self._reduced.get(id(row))
        if entry is None:
            a, den = _int_row([*row.normal, self.bound(row)])
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
        t = row.bound - row.normal.dot(self.x0)
        if t < 0 or (row.kind == EQ and t != 0):
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
    rules the decisions: rows whose primitive normals and kinds agree
    (x <= 3 and 2x <= 7, say) are one key, and only its row with the least
    slack at that point is tested; the others are implied by it and go at
    once (`certificates._Rows`).  Each decision first tries the
    certificates in `store` (a fresh store when none is given) and only
    then solves the implication LP, whose certificate it adds to the store.
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
    """The system of `rows`, which are canonical, nontrivial and distinct
    already (a subsequence of a system's rows, say), so the constructor's
    canonicalising and deduplication are skipped."""
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


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _idot(a: list, x: list) -> int:
    return sum(p * q for p, q in zip(a, x))


def _combine(s: int, p: list, t: int, q: list) -> list:
    """The integer vector s*p + t*q divided by its content."""
    v = [s * a + t * b for a, b in zip(p, q)]
    g = gcd(*v)
    return v if g <= 1 else [a // g for a in v]


def cone_rays(sys: HPolyhedron) -> tuple:
    """V-representation of a cone: (lineality, rays), a basis of the
    lineality space of `sys` and its extreme rays modulo that space, each a
    primitive integer RatVec.  Every row of `sys` must have bound 0.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953; Fukuda and Prodon 1996) starts from the whole space and adds the
    rows one at a time, an equality as two <= rows.  A row that cuts the
    lineality space turns the first lineality vector it cuts into a ray.
    Otherwise the rays the row violates go, and each adjacent pair on
    opposite sides of it gives one ray on its hyperplane.  Two rays are
    adjacent when no third ray is tight on every row both are tight on; the
    rows a ray is tight on, its zero set, are an int bitmask.  All
    arithmetic is on integers.  The lineality vectors start as the unit
    vectors, and each stays nonzero in the coordinate it started with,
    where every other lineality vector and every ray is 0; so the rays come
    out reduced modulo the lineality space.
    """
    if any(r.bound != 0 for r in sys.ineqs):
        raise DomainError("cone_rays needs every bound to be 0")
    rows = []
    for r in sys.ineqs:
        a = _int_row(r.normal)[0]
        rows += [a] if r.kind == LE else [a, [-c for c in a]]
    n = sys.dim
    lineality = [[int(i == j) for j in range(n)] for i in range(n)]
    rays: list = []  # (vector, zero set of the rows added so far)
    for i, a in enumerate(rows):
        bit = 1 << i
        k = next((k for k, l in enumerate(lineality) if _idot(a, l)), None)
        if k is not None:
            v = lineality.pop(k)
            if _idot(a, v) > 0:
                v = [-c for c in v]
            # a.v = -d < 0; adding multiples of v puts the rest on a.x = 0
            d = -_idot(a, v)
            lineality = [_combine(d, l, _idot(a, l), v) for l in lineality]
            rays = [(_combine(d, r, _idot(a, r), v), z | bit) for r, z in rays]
            rays.append((v, bit - 1))
            continue
        sides = [_idot(a, r) for r, _ in rays]
        kept = [(r, z | bit if s == 0 else z) for (r, z), s in zip(rays, sides) if s <= 0]
        for p, (rp, zp) in enumerate(rays):
            if sides[p] <= 0:
                continue
            for q, (rq, zq) in enumerate(rays):
                if sides[q] >= 0:
                    continue
                common = zp & zq
                if all(z & common != common for o, (_, z) in enumerate(rays) if o != p and o != q):
                    kept.append((_combine(sides[p], rq, -sides[q], rp), common | bit))
        rays = kept
    return [RatVec(l) for l in lineality], [RatVec(r) for r, _ in rays]


def cone_hull(generators: Sequence[RatVec], dim: int) -> HPolyhedron:
    """H-representation of the convex cone spanned by `generators` (the
    origin when there are none), by polarity.  With (L, R) the lineality
    basis and extreme rays of the polar cone { y : <g, y> <= 0 }, the cone
    is { x : <l, x> = 0 for l in L, <r, x> <= 0 for r in R }, and each ray
    is a facet, so no row is redundant."""
    lineality, rays = cone_rays(HPolyhedron(dim, [AffineIneq(g, 0) for g in generators]))
    return HPolyhedron(
        dim, [*(AffineIneq(l, 0, EQ) for l in lineality), *(AffineIneq(r, 0) for r in rays)]
    )
