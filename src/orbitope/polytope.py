"""Moment polyhedra of holomorphic orbit projections.

`assemble` builds the polyhedron from first principles: for every dominant
indivisible admissible cocharacter lam and every m = 0 well-covering pair
(w, w') it adds the inequality

    <w lam, xi>  <=  <w0 w' lam, Lambda>,

intersects with the dominant chamber, canonicalizes and removes redundant
rows.  `closed_form` returns the literal inequality lists known for
sp (any rank), su(n, 1) (any rank), so*(6), so*(8) and su(2, 2).

`horn_oracle_member` is the independent route: a rational point mu lies in
the polyhedron iff some point of the strongly-orthogonal-family cone is a
Horn-admissible "difference spectrum" between mu and the dual of Lambda,
blockwise over the unitary factors.  That condition is one exact LP
feasibility test; `cross_check` decides exactly whether the two routes
give one polyhedron at Lambda.
Every route's rows are <a, x> (<=|=) <c, p>, a fixed normal and a bound
linear in the parameter p: Lambda, or mu then Lambda for the oracle, whose
x is the cone's (m, k).  One evaluator, `_LinearRows`, makes them canonical.
The tests' reference code (`tests/reference.py`) builds one more route on
it, assembly from the m = 0 dominant pairs, which must give the same
polyhedron, and holds the geometric containment checks.

The entry points `assemble`, `closed_form` and `horn_oracle_member` check
the family and Lambda in one place, `_checked_lambda`.  Their answers
serialise themselves (`to_json_obj`), each row through
`AffineIneq.to_json_obj`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Optional

from . import horn
from .exactmath import (
    EQ,
    LE,
    AffineIneq,
    DomainError,
    HPolyhedron,
    RatVec,
    _canonical_row,
    _canonical_system,
    _fraction,
    _int_row,
    implies_all,
    lp_feasible,
    lp_witness,
    rat_str,
    remove_redundant,
)
from .rootdata import (
    SO_STAR,
    SP,
    SU,
    GroupData,
    UnsupportedFamilyError,
    dual_weight,
    in_hol_chamber,
)


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where one assembled inequality came from, and whether redundancy
    elimination kept it."""

    ineq: AffineIneq
    source: str  # "chamber" | "pair" | "closed-form"
    lam: Optional[tuple[int, ...]] = None
    w: Optional[str] = None
    w_prime: Optional[str] = None
    kept: bool = True

    def to_json_obj(self):
        obj = {**self.ineq.to_json_obj(), "source": self.source, "kept": self.kept}
        if self.lam is not None:
            obj["lambda"] = list(self.lam)
            obj["w"] = self.w
            obj["w_prime"] = self.w_prime
        return obj


# The source of every chamber row and of every closed-form row: one record
# each, shared by every answer.  A pair row's source is its pair's
# `WCPair.source`, ("pair", lam, w, w').
_CHAMBER = ("chamber",)
_CLOSED_FORM = ("closed-form",)


@dataclass(frozen=True, slots=True)
class OrbitPolytope:
    """An answer: the system at Lambda, the rows offered to it in
    provenance order and each offered row's source record, shared with
    every other answer that cites the same source.  `provenance` is built
    from these on each read."""

    group: GroupData
    Lambda: RatVec
    system: HPolyhedron
    offered: tuple[AffineIneq, ...]
    sources: tuple[tuple, ...]

    @property
    def provenance(self) -> tuple[Provenance, ...]:
        """One record per offered row, in order; a row is kept when that
        very object is a row of the system."""
        kept = {id(row) for row in self.system.ineqs}
        return tuple(Provenance(row, *source, kept=id(row) in kept)
                     for row, source in zip(self.offered, self.sources))

    def to_json_obj(self):
        return {
            "group": self.group.label(),
            "Lambda": [rat_str(c) for c in self.Lambda],
            "ineqs": [row.to_json_obj() for row in self.system.ineqs],
            "provenance": [p.to_json_obj() for p in self.provenance],
        }

    def pretty(self) -> str:
        return "; ".join(display_ineq(r) for r in self.system.ineqs)


def display_ineq(row: AffineIneq) -> str:
    """Human form 'xi1 - xi2 >= 0' of the integer row; <= rows with a
    negative leading coefficient are flipped to >=."""
    (normal, bound), op = row.integer_row(), "<=" if row.kind == LE else "="
    if row.kind == LE and next((c for c in normal if c != 0), 0) < 0:
        normal, bound, op = [-c for c in normal], -bound, ">="
    parts = []
    for i, c in enumerate(normal):
        if c == 0:
            continue
        mag = abs(c)
        coef = "" if mag == 1 else f"{mag}*"
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{coef}xi{i+1}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {coef}xi{i+1}")
    lhs = " ".join(parts) if parts else "0"
    return f"{lhs} {op} {bound}"


def _checked_lambda(g: GroupData, Lambda) -> RatVec:
    """Lambda as a RatVec, once g is known to have a polytope pipeline and
    Lambda to be a strictly holomorphic weight of g."""
    if not g.schubert_carrier:
        raise UnsupportedFamilyError(
            f"{g.label()}: no polytope pipeline for the orthogonal family"
        )
    Lambda = Lambda if isinstance(Lambda, RatVec) else RatVec(Lambda)
    if Lambda.dim != g.dim:
        raise DomainError(f"Lambda dimension {Lambda.dim} != {g.dim}")
    if not in_hol_chamber(g, Lambda):
        raise DomainError(f"Lambda {Lambda!r} is not strictly holomorphic for {g.label()}")
    return Lambda


class _LinearRows:
    """Rows <a, x> (<=|=) <c, p>: a fixed integer normal a over the nvars
    coordinates of x and a bound linear in a parameter p with integer
    coefficients c; `rows` holds them as given, (a, c, kind).  Each row is
    worked out once: a = scale * unit with unit primitive (sign-normalised
    for an equality) and scale a positive integer, rows with one unit and
    kind share a class and its unit tuple, and c is kept as its nonzero
    terms.  At p, over one denominator of p, bound / scale is an integer
    fraction n/d, and the canonical row is <unit, x> (<=|=) n/d, keyed
    (class, n, d)."""

    def __init__(self, nvars: int, rows):
        self.nvars, self.rows = nvars, tuple(rows)
        # (unit, kind); classes 0 and 1 are the zero normal's.
        zero = (0,) * nvars
        self._classes = [(zero, LE), (zero, EQ)]
        index = {(zero, LE): 0, (zero, EQ): 1}
        self._forms = []  # (class, terms of c, scale) per row
        for a, c, kind in self.rows:
            g = gcd(*a)  # a = g unit; g = 0 for a zero normal
            unit = tuple(x // g for x in a) if g > 1 else tuple(a)
            sign = -1 if kind == EQ and next((x for x in unit if x), 0) < 0 else 1
            if sign < 0:
                unit = tuple(-x for x in unit)
            if (unit, kind) not in index:
                index[unit, kind] = len(self._classes)
                # A normal given as that very tuple is kept, so that the
                # rows of a cached pair or of the chamber share it.
                self._classes.append((a if unit == a else unit, kind))
            # With p = P / D, bound / scale = <c, P> / (D g); the sign of an
            # equality's unit goes to c.
            terms = tuple((j, sign * v) for j, v in enumerate(c) if v)
            self._forms.append((index[unit, kind], terms, g))

    def at(self, p) -> list[AffineIneq]:
        """The canonical row of each row at p; equal rows are one object,
        and rows of one class share its unit tuple."""
        ints, den = _int_row(p)
        made: dict = {}
        out = []
        for cls, terms, scale in self._forms:
            s = sum(v * ints[j] for j, v in terms)
            if scale:
                g = gcd(s, den * scale)
                n, d = s // g, den * scale // g
            else:  # 0 <= s or 0 = s holds, or the row is the marker {0 <= -1}
                cls, n, d = (cls, 0, 1) if s == 0 or (s > 0 and cls == 0) else (0, -1, 1)
            if (cls, n, d) not in made:
                unit, kind = self._classes[cls]
                bound = _fraction(n) if d == 1 else Fraction(n, d)
                made[cls, n, d] = _canonical_row(unit, bound, kind)
            out.append(made[cls, n, d])
        return out

    def system(self, p) -> HPolyhedron:
        """HPolyhedron(nvars, the rows at p), built from `at`."""
        return _system(self.nvars, self.at(p))


def _system(nvars: int, rows) -> HPolyhedron:
    """HPolyhedron(nvars, rows) for rows from `_LinearRows.at`, whose equal
    rows are one object; the system holds those very objects."""
    distinct = {id(row): row for row in rows if not row.is_trivial()}
    return _canonical_system(nvars, list(distinct.values()))


def _assembly_rows(g: GroupData) -> tuple:
    """The pair rows `assemble` offers beside the chamber's, over Lambda:
    one row per m = 0 well-covering pair, and each row's source record.
    Not memoised: it holds the scan.
    The assembly layers are imported here, their one user, so that the
    Horn oracle loads without them."""
    from .admissible import enumerate_admissible, sorted_admissible
    from .wellcover import enumerate_m0, require_pairs

    require_pairs(g)
    pairs = [pair for lam in sorted_admissible(enumerate_admissible(g))
             for pair in enumerate_m0(g, lam)]
    rows = _LinearRows(g.dim, [(*pair.row_vectors, LE) for pair in pairs])
    return rows, [pair.source for pair in pairs]


def assemble(g: GroupData, Lambda) -> OrbitPolytope:
    """The moment polyhedron from admissible cocharacters and their m = 0
    well-covering pairs.

    The answer offers the chamber's rows, the very objects of `g.chamber`,
    then the pair rows at Lambda sorted by their integer rows.  Equal rows
    are one object, shared by `offered` and the system; a pair row equal to
    a chamber row is the chamber's.  A pair row keeps its pair's normal
    tuple, and a source record is its pair's or a module constant, so
    answers to different Lambdas share all three.
    """
    Lambda = _checked_lambda(g, Lambda)
    rows, sources = _assembly_rows(g)
    pairs = sorted(zip(rows.at(Lambda), sources), key=lambda t: t[0].integer_row())
    chamber = g.chamber.ineqs
    distinct = {row: row for row in chamber}
    offered = chamber + tuple(distinct.setdefault(row, row) for row, _ in pairs)
    # Lambda lies in the polyhedron, so it is the known point.
    system = remove_redundant(_canonical_system(g.dim, list(distinct)), Lambda, _certificates(g))
    sources = (_CHAMBER,) * len(chamber) + tuple(source for _, source in pairs)
    return OrbitPolytope(g, Lambda, system, offered, sources)


@cache
def _certificates(g: GroupData) -> "CertificateStore":
    """The redundancy certificates of g's assembled systems, which share
    their row normals across Lambda; the store grows, bounded per row."""
    # Imported here, as in exactmath.remove_redundant, so that a process
    # that never assembles does not load the module.
    from .certificates import CertificateStore

    return CertificateStore()


def member(p: OrbitPolytope, xi) -> bool:
    xi = xi if isinstance(xi, RatVec) else RatVec(xi)
    return p.system.contains(xi)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _closed_form_rows(g: GroupData) -> _LinearRows:
    """The literal closed-form lists as rows over Lambda: the chamber's, then
    the family's rows <xi coefficients, xi> >= <Lambda coefficients, Lambda>
    (`ge`), then its rows with <= (`le`)."""
    tag, params, n = g.family.tag, g.family.params, g.dim
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    signs = [[1 - 2 * x for x in e_k] for e_k in e]  # all but one positive
    if tag == SP:
        ge, le = [(e_i, e_i) for e_i in e], []
    elif tag == SU and params[1] == 1 and g.unitary_coords:
        lams = [[(n + 1) * x - 1 for x in e_k] for e_k in e]
        ge, le = [(lam, lam) for lam in lams], [(lams[k + 1], lams[k]) for k in range(n - 1)]
    elif tag == SO_STAR and params[0] == 3:
        ge = [(s, s) for s in signs] + [((1, -1, -1), (-1, 1, -1)), ((-1, 1, -1), (-1, -1, 1))]
        le = []
    elif tag == SO_STAR and params[0] == 4:
        # The affine-cone rows, all-but-one positive and coordinatewise, and
        # the six extra rows.
        ge = [(s, s) for s in signs] + [(e_i, e_i) for e_i in e]
        le = [((1, -1, 1, -1), (1, 1, -1, -1)), ((-1, 1, 1, -1), (1, -1, 1, -1)),
              ((1, -1, -1, 1), (1, -1, 1, -1)), ((-1, 1, -1, 1), (-1, 1, 1, -1)),
              ((-1, 1, -1, 1), (1, -1, -1, 1)), ((-1, -1, 1, 1), (-1, 1, -1, 1))]
    elif tag == SU and params == (2, 2):
        ge = [(e[0], e[0]), (e[1], e[1])]
        le = [(e[2], e[2]), (e[3], e[3])]
        # |xi1 - xi2 - xi3 + xi4| <= c1, and -xi1 + xi2 - xi3 + xi4 <= -|c2|.
        le += [((1, -1, -1, 1), (1, -1, 1, -1)), ((-1, 1, 1, -1), (1, -1, 1, -1))]
        le += [((-1, 1, -1, 1), (1, -1, -1, 1)), ((-1, 1, -1, 1), (-1, 1, 1, -1))]
    else:
        raise DomainError(f"no closed-form polytope for {g.label()}")
    rows = [(row.normal, [0] * n, row.kind) for row in g.chamber.ineqs]
    rows += [([-x for x in xi], [-c for c in lam], LE) for xi, lam in ge]
    rows += [(xi, lam, LE) for xi, lam in le]
    return _LinearRows(n, rows)


def closed_form(g: GroupData, Lambda) -> OrbitPolytope:
    """The literal inequality lists known in closed form, kept as stated
    (canonicalized and deduplicated but not redundancy-reduced)."""
    Lambda = _checked_lambda(g, Lambda)
    offered = tuple(_closed_form_rows(g).at(Lambda))
    return OrbitPolytope(g, Lambda, _system(g.dim, offered), offered,
                         (_CLOSED_FORM,) * len(offered))


# ---------------------------------------------------------------------------
# The Horn oracle
# ---------------------------------------------------------------------------


@cache
def _oracle_rows(g: GroupData) -> _LinearRows:
    """The Horn oracle's rows for g, which depend on neither Lambda nor mu.

    Variables: the chain coefficients m_1 >= ... >= m_r >= 0 of the
    strongly orthogonal cone, plus (for the two-block family su(p, q),
    q >= 2) one central shift k.  Rows: the chain, then per unitary factor
    the Horn trace equality and all T inequalities for the triple
    (mu_block, dual(Lambda)_block, gamma(m)_block + k).

    The parameter is mu followed by Lambda: a row's bound is the sum of mu
    over coordinates I plus the sum of dual(Lambda) over coordinates J.
    """
    r, n = len(g.schmid), g.dim
    nvars = r + (1 if g.trace_zero else 0)

    def gamma_sum(coords) -> list:
        """The sum of gamma(m)_c (+ k) over coords, as a linear form in m (and k)."""
        form = [sum(gamma[c] for c in coords) for gamma in g.schmid]
        if g.trace_zero:
            form.append(len(coords))  # the central shift k on every coordinate
        return form

    duals = [dual_weight(g, [int(j == k) for j in range(n)]) for k in range(n)]  # dual(e_k)

    def bound(I, J) -> list:
        """sum(mu_I) + sum(dual(Lambda)_J) as coefficients over (mu, Lambda)."""
        return [int(i in I) for i in range(n)] + [sum(duals[k][j] for j in J) for k in range(n)]

    rows = []
    # Chain: m_1 >= m_2 >= ... >= m_r >= 0.
    for i in range(r):
        a = [0] * nvars
        a[i] = -1
        if i + 1 < r:
            a[i + 1] = 1
        rows.append((a, bound((), ()), LE))
    for start, stop in g.weyl.block_ranges():
        block = tuple(range(start, stop))
        # Trace equality: sum(mu) + sum(lam*) = sum(gamma + k) over the block.
        rows.append((gamma_sum(block), bound(block, block), EQ))
        for rr in range(1, len(block)):
            for t in horn.enum_T(rr, len(block)):
                I, J, L = (tuple(block[i - 1] for i in part) for part in t)
                rows.append((gamma_sum(L), bound(I, J), LE))
    return _LinearRows(nvars, rows)


def horn_oracle_member(g: GroupData, Lambda, mu, witness: bool = False):
    """Membership of mu in the moment polyhedron by the Horn route only.

    Returns a bool, or (bool, schmid-cone witness RatVec or None) when
    witness=True.  Points outside the dominant chamber are rejected
    outright (the polyhedron lives inside it).
    """
    Lambda = _checked_lambda(g, Lambda)
    mu = mu if isinstance(mu, RatVec) else RatVec(mu)
    if mu.dim != g.dim:
        raise DomainError(f"mu dimension {mu.dim} != {g.dim}")
    if not g.chamber.contains(mu):
        return (False, None) if witness else False
    sys = _oracle_rows(g).system((*mu, *Lambda))
    if not witness:
        return lp_feasible(sys)
    point = lp_witness(sys)
    if point is None:
        return False, None
    return True, RatVec(sum(m * gamma[c] for m, gamma in zip(point, g.schmid))
                        for c in range(g.dim))


# ---------------------------------------------------------------------------
# The two routes compared at Lambda
# ---------------------------------------------------------------------------


# Why each kind of disagreement is one: a vertex, ray or lineality vector
# ("line") of the assembled P(Lambda) that the Horn route lacks, or a kept
# row of P(Lambda) that the Horn rows do not imply.
_REASONS = {
    "vertex": "fails the Horn oracle",
    "ray": "is no direction of the Horn route",
    "line": "is no direction of the Horn route",
    "row": "is not implied by the Horn rows",
}


@dataclass
class CrossCheckReport:
    """The exact comparison at one Lambda: the size of P(Lambda), its kept
    rows and generators, and each disagreement as {"kind", "at"}, the kind
    a key of `_REASONS` and "at" the point or the displayed row."""

    group: str
    Lambda: tuple
    kept_rows: int
    vertices: int
    rays: int
    lineality: int
    disagreements: list

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json_obj(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        """One line per disagreement, then the counts; the last line ends
        with the number of disagreements."""
        lines = [f"{d['kind']} {d['at']} {_REASONS[d['kind']]}" for d in self.disagreements]
        lines.append(
            f"{self.group} Lambda={','.join(self.Lambda)}: {self.kept_rows} kept rows, "
            f"{self.vertices} vertices, {self.rays} rays, {self.lineality} lineality vectors, "
            f"{len(self.disagreements)} disagreements"
        )
        return "\n".join(lines)


def cross_check(g: GroupData, Lambda) -> CrossCheckReport:
    """Decide exactly whether the assembled polyhedron P(Lambda) equals the
    Horn route's polyhedron at Lambda (route 2: the points mu that
    `horn_oracle_member` accepts)."""
    return _compare(assemble(g, Lambda))


def _compare(pol: OrbitPolytope) -> CrossCheckReport:
    """The two inclusions between pol's system and route 2 at pol.Lambda.

    P inside route 2: the homogenisation {(x, t) : <a, x> - b t (<=|=) 0,
    t >= 0} of P's integer rows is generated by (v, 1) for P's vertices v,
    (d, 0) for its rays d and its lineality vectors (d, 0), which `cone_rays`
    lists.  Route 2 is convex, so P lies in it iff every vertex passes the
    oracle and every ray, and each lineality vector with both signs, is a
    direction of route 2: in the chamber, with the oracle's rows feasible at
    (mu, Lambda) = (d, 0), which is route 2's recession cone.

    Route 2 inside P: the oracle's rows at Lambda, over (m, k, mu) with mu
    as variables and the chamber on mu, must imply every kept row of P
    lifted to (0, row).  One batch of implication LPs decides it, and only
    a "no" asks row by row which rows fail.
    """
    from .cones import cone_rays  # only check runs a double description

    g, Lambda, n = pol.group, pol.Lambda, pol.group.dim
    rows = pol.system.ineqs
    homogenised = [AffineIneq((*a, -b), 0, row.kind)
                   for row in rows for a, b in [row.integer_row()]]
    homogenised.append(AffineIneq((0,) * n + (-1,), 0))
    lineality, rays = cone_rays(HPolyhedron(n + 1, homogenised))
    vertices = [RatVec(c / r[n] for c in r[:n]) for r in rays if r[n]]
    directions = [("ray", RatVec(r[:n])) for r in rays if not r[n]]
    directions += [("line", RatVec(s * c for c in l[:n])) for l in lineality for s in (1, -1)]
    disagreements = [{"kind": "vertex", "at": _point_str(v)}
                     for v in vertices if not horn_oracle_member(g, Lambda, v)]
    oracle = _oracle_rows(g)
    origin = (0,) * n
    disagreements += [
        {"kind": kind, "at": _point_str(d)} for kind, d in directions
        if not (g.chamber.contains(d) and lp_feasible(oracle.system((*d, *origin))))
    ]
    # Route 2 over (m, k, mu) at Lambda: a row <a, x> (<=|=) <c, (mu, Lambda)>
    # reads <a, x> - <c_mu, mu> (<=|=) <c_Lambda, Lambda>.
    lifted = _LinearRows(oracle.nvars + n, [
        *(((*a, *(-v for v in c[:n])), c[n:], kind) for a, c, kind in oracle.rows),
        *(((0,) * oracle.nvars + row.normal, origin, row.kind) for row in g.chamber.ineqs),
    ]).system(Lambda)
    zero = (0,) * oracle.nvars
    kept = [AffineIneq(zero + row.normal, row.bound, row.kind) for row in rows]
    if not implies_all(lifted, kept):
        disagreements += [{"kind": "row", "at": display_ineq(row)}
                          for row, lift in zip(rows, kept) if not implies_all(lifted, [lift])]
    return CrossCheckReport(
        group=g.label(),
        Lambda=tuple(rat_str(x) for x in Lambda),
        kept_rows=len(rows),
        vertices=len(vertices),
        rays=len(rays) - len(vertices),
        lineality=len(lineality),
        disagreements=disagreements,
    )


def _point_str(x: RatVec) -> str:
    return ",".join(rat_str(c) for c in x)
