"""Certificates of redundancy decisions, reusable across systems that
share their row normals.

`exactmath.remove_redundant` visits the rows of a system in order and
drops a row when the rows still kept, without it, imply it.  It proves
each decision with a certificate (Fukuda, *Polyhedral Computation FAQ*,
2.19-2.21) that names rows by their primitive integer normals, not their
bounds, so the certificate can be checked against any bounds:

  Farkas   -- multipliers y >= 0 on <= rows with y A equal to the tested
              normal (up to the equalities), which prove the row implied
              when the rows are in the system and y . b <= its bound;
  Witness  -- a basis of row normals and coordinates of x0, whose point
              A_B^-1 b_B proves the row kept when it satisfies every other
              row and violates this one;
  Ray      -- a direction no other row stops and the tested normal grows
              along, which proves the row kept from x0.

A `CertificateStore` keeps them per tested direction.  Before the LP of a
decision, the certificates stored for its direction are checked exactly,
in integers and Fractions, against the rows still in the system at their
bounds; the first that holds decides.  Only when none holds does the
implication LP run (`exactmath._Frame.lp`, the one `implies` runs).
exactmath reads its final tableau; this module only names the LP rows by
key: the multipliers give y, the tight rows, the pivoting equalities and
the coordinates that did not move the basis, the unbounded edge the ray.
So a miss costs no LP beyond the one that decides it, and every decision
is the fact the LP would have established, taken in the same order: the
kept rows never depend on the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional

from .exactmath import EQ, LE, RatVec, _Frame, _int_row, row_reduce


# Most certificates a CertificateStore keeps per tested direction.
CERTIFICATES_PER_ROW = 8


def _excess(row, x: list, scale: int) -> int:
    """An integer of the sign of <normal, x / scale> - bound (scale > 0),
    or, for scale 0, of <normal, x>."""
    b = row.bound
    return sum(map(mul, row.normal, x)) * b.denominator - b.numerator * scale


class _Rows:
    """The rows of one redundancy removal, with their slacks at a point x0
    of the system and which of them are still in it.

    Row j's key (normal, kind) is what certificates name, since it does not
    change when only the bound does.  `slacks[j]` is its slack at x0,
    bound - <normal, x0>, and `feasible` says whether x0 satisfies every
    row.  `frame` holds the implication LPs at x0 that decide what no
    certificate does.
    """

    def __init__(self, rows: list, x0: RatVec):
        self.rows = rows
        self.x0 = x0
        self.frame = _Frame(x0)
        self.keys = [(row.normal, row.kind) for row in rows]
        self.slacks = []
        self.index = {id(row): j for j, row in enumerate(rows)}
        self.tightest_of: dict = {}  # key -> its row with the least slack
        self.feasible = True
        for j, (row, key) in enumerate(zip(rows, self.keys)):
            excess, den = row._excess(x0)
            self.feasible &= excess <= 0 if row.kind == LE else excess == 0
            self.slacks.append(Fraction(-excess, den))
            best = self.tightest_of.get(key)
            if best is None or self.slacks[j] < self.slacks[best]:
                self.tightest_of[key] = j
        self.alive = [self.tightest_of[key] == j for j, key in enumerate(self.keys)]

    def tightest(self, key) -> Optional[int]:
        """The row of this key with the least slack while it is in the
        system, else None.  It is the key's one row: the others never are,
        since at a point of the system it implies them and they help imply
        no other row."""
        j = self.tightest_of.get(key)
        return j if j is not None and self.alive[j] else None

    def violated(self, x: list, scale: int) -> bool:
        """Whether a row still in the system fails at the point x / scale
        (scale > 0), or, for scale 0, whether it stops the direction x."""
        for alive, row in zip(self.alive, self.rows):
            if alive:
                excess = _excess(row, x, scale)
                if excess > 0 or (excess and row.kind == EQ):
                    return True
        return False

    def key(self, row) -> tuple:
        return self.keys[self.index[id(row)]]

    def solve(self, i: int, sign: int) -> tuple:
        """(bounded, certificate): the implication LP of row i against the
        rows still in the system in direction sign * normal, and the
        certificate its final tableau gives, with LP rows named by key."""
        rest = [row for row, alive in zip(self.rows, self.alive) if alive]
        bounded, sub, sources, final = self.frame.lp(rest, self.rows[i], sign)
        if bounded:
            support: dict = {}
            for p, y in final.multipliers():
                key = self.key(sources[p])
                support[key] = support.get(key, 0) + y
            return True, Farkas(tuple(support.items()), tuple(map(self.key, sub.eqs)))
        edge = final.edge()
        if edge is not None:
            direction, _ = _int_row(sub.lift(edge))
            g = gcd(*direction)
            return False, Ray(tuple(a // g for a in direction))
        # The objective passed the slack at a vertex of the LP: the tight
        # rows, the pivoting equalities and, for each free variable that did
        # not move, its coordinate of x0.
        keys = [self.key(sources[p]) for p in final.tight()]
        keys += [self.key(sub.eqs[q]) for q in sub.pivot_rows]
        coords = tuple(sub.free_cols[j] for j in final.unmoved())
        return False, Witness(tuple(keys), coords)


@dataclass(frozen=True, slots=True)
class Farkas:
    """Proves a row implied: multipliers y >= 0 on <= rows named by key,
    with sum y * normal equal to the tested direction up to a combination of
    the named equalities.  That identity does not depend on the bounds; at
    given bounds the row is implied when every named row is in the system
    and sum y * slack <= the tested row's slack."""

    support: tuple  # ((key, y), ...)
    equalities: tuple  # (key, ...)

    def decide(self, rows: _Rows, i: int, sign: int) -> Optional[bool]:
        total = 0
        for key, y in self.support:
            j = rows.tightest(key)
            if j is None:
                return None
            total += y * rows.slacks[j]
        if any(rows.tightest(key) is None for key in self.equalities):
            return None
        return True if total <= sign * rows.slacks[i] else None


@dataclass(frozen=True)
class Witness:
    """Proves a row kept: a basis of row normals (by key) and coordinate
    functionals, whose point x_B = A_B^-1 b_B takes the bounds of the named
    rows and the coordinates of x0.  At given bounds the row is kept when
    x_B satisfies every row still in the system and violates the tested
    one."""

    keys: tuple  # (key, ...)
    coords: tuple  # (coordinate index, ...)

    @cached_property
    def inverse(self) -> tuple:
        """(integer rows, positive denominator) of A_B^-1.  The basis is
        nonsingular: it is the LP's final basis written in x."""
        dim = len(self.keys) + len(self.coords)
        units = [list(normal) for normal, _ in self.keys]
        units += [[1 if j == c else 0 for j in range(dim)] for c in self.coords]
        rows = [u + [1 if k == r else 0 for k in range(dim)] for r, u in enumerate(units)]
        ints, dens, pivots = row_reduce(rows, range(dim))
        # Row r is [unit vector of col, row col of A_B^-1] over dens[r].
        den = 1
        for r, _ in pivots:
            den = den * dens[r] // gcd(den, dens[r])
        inverse = [None] * dim
        for r, col in pivots:
            inverse[col] = [a * (den // dens[r]) for a in ints[r][dim:]]
        return inverse, den

    def decide(self, rows: _Rows, i: int, sign: int) -> Optional[bool]:
        bounds = []
        for key in self.keys:
            j = rows.tightest(key)
            if j is None:
                return None
            bounds.append(rows.rows[j].bound)
        bounds += [rows.x0[c] for c in self.coords]
        b, den = _int_row(bounds)
        inverse, inverse_den = self.inverse
        x = [sum(map(mul, row, b)) for row in inverse]
        scale = den * inverse_den
        if sign * _excess(rows.rows[i], x, scale) <= 0 or rows.violated(x, scale):
            return None
        return False


@dataclass(frozen=True, slots=True)
class Ray:
    """Proves a row kept: a direction d with <normal, d> <= 0 on every <= row
    and = 0 on every equality of the system, along which the tested
    direction grows.  x0 + t d stays in the system for all t >= 0."""

    direction: tuple

    def decide(self, rows: _Rows, i: int, sign: int) -> Optional[bool]:
        if sign * sum(map(mul, rows.rows[i].normal, self.direction)) <= 0:
            return None
        return None if rows.violated(self.direction, 0) else False


class CertificateStore:
    """Certificates of redundancy decisions, shared by systems whose rows
    have the same normals and other bounds (the systems `assemble` builds
    for one group at different Lambda).

    Certificates are kept per tested direction (a primitive integer
    normal, negated for the second test of an equality), at most
    CERTIFICATES_PER_ROW of them, the most recently useful first.  Each one
    is checked exactly against the system at hand before it decides
    anything; `hits` and `misses` count the decisions taken with and
    without an LP.
    """

    def __init__(self):
        self.certificates: dict = {}
        self.hits = 0
        self.misses = 0

    def bounded(self, rows: _Rows, i: int, sign: int) -> bool:
        """Whether the rows still in the system imply row i in direction
        sign (True) or not (False)."""
        normal = rows.keys[i][0]
        direction = normal if sign == 1 else tuple(-a for a in normal)
        found = self.certificates.setdefault(direction, [])
        for k, cert in enumerate(found):
            verdict = cert.decide(rows, i, sign)
            if verdict is not None:
                self.hits += 1
                if k:
                    found.insert(0, found.pop(k))
                return verdict
        self.misses += 1
        verdict, cert = rows.solve(i, sign)
        found.insert(0, cert)
        del found[CERTIFICATES_PER_ROW:]
        return verdict
