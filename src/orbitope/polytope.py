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
feasibility test; `cross_check` compares the two routes over a grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from . import horn
from .admissible import enumerate_admissible, sorted_admissible
from .exactmath import (
    EQ,
    LE,
    AffineIneq,
    DomainError,
    HPolyhedron,
    RatVec,
    _canonical_system,
    cone_hull,
    implies_all,
    ineq_ge,
    ineq_le,
    lp_feasible,
    lp_witness,
    primitive,
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
    pairing,
)
from .wellcover import enumerate_m0, enumerate_m0_dominant, require_pairs


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
        obj = {
            "a": [rat_str(c) for c in self.ineq.normal],
            "b": rat_str(self.ineq.bound),
            "eq": self.ineq.kind == EQ,
            "source": self.source,
            "kept": self.kept,
        }
        if self.lam is not None:
            obj["lambda"] = list(self.lam)
            obj["w"] = self.w
            obj["w_prime"] = self.w_prime
        return obj


@dataclass(frozen=True, slots=True)
class OrbitPolytope:
    group: GroupData
    Lambda: RatVec
    system: HPolyhedron
    provenance: tuple[Provenance, ...]

    def to_json_obj(self):
        return {
            "group": self.group.label(),
            "Lambda": [rat_str(c) for c in self.Lambda],
            "ineqs": self.system.to_json_obj()["ineqs"],
            "provenance": [p.to_json_obj() for p in self.provenance],
        }

    def pretty(self) -> str:
        return "; ".join(display_ineq(r) for r in self.system.ineqs)


def display_ineq(row: AffineIneq) -> str:
    """Human form 'xi1 - xi2 >= 0'; rows whose canonical <= form has a
    negative leading coefficient are flipped to >=."""
    normal, bound, op = row.normal, row.bound, "<=" if row.kind == LE else "="
    if row.kind == LE:
        lead = next((c for c in normal if c != 0), Fraction(0))
        if lead < 0:
            normal, bound, op = -normal, -bound, ">="
    parts = []
    for i, c in enumerate(normal):
        if c == 0:
            continue
        mag = abs(c)
        coef = "" if mag == 1 else f"{rat_str(mag)}*"
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{coef}xi{i+1}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {coef}xi{i+1}")
    lhs = " ".join(parts) if parts else "0"
    return f"{lhs} {op} {rat_str(bound)}"


def _require_assemblable(g: GroupData):
    if not g.schubert_carrier:
        raise UnsupportedFamilyError(
            f"{g.label()}: no polytope pipeline for the orthogonal family"
        )


def _validate_lambda(g: GroupData, Lambda: RatVec):
    if Lambda.dim != g.dim:
        raise DomainError(f"Lambda dimension {Lambda.dim} != {g.dim}")
    if not in_hol_chamber(g, Lambda):
        raise DomainError(f"Lambda {Lambda!r} is not strictly holomorphic for {g.label()}")


def assemble(g: GroupData, Lambda, relaxed: bool = False) -> OrbitPolytope:
    """The moment polyhedron from admissible cocharacters and their m = 0
    well-covering pairs (dominant pairs instead when relaxed=True).

    Each row is canonicalized once, and equal rows are one object, shared
    by the provenance records and the system.  Rows already canonical keep
    their pair's normal vector, so answers to different Lambdas share it.
    """
    _require_assemblable(g)
    Lambda = Lambda if isinstance(Lambda, RatVec) else RatVec(Lambda)
    _validate_lambda(g, Lambda)
    require_pairs(g)
    enumerate_pairs = enumerate_m0_dominant if relaxed else enumerate_m0
    pair_rows = []
    for lam in sorted_admissible(enumerate_admissible(g)):
        for pair in enumerate_pairs(g, lam):
            normal, c = pair.row_vectors
            pair_rows.append((AffineIneq(normal, pairing(c, Lambda)).canonical(), pair.labels))
    pair_rows.sort(key=lambda t: (t[0].normal.entries, t[0].bound))
    sources = [(row, "chamber", (None, None, None)) for row in g.chamber.ineqs]
    sources += [(row, "pair", labels) for row, labels in pair_rows]
    shared: dict = {}
    rows = [shared.setdefault(row, row) for row, _, _ in sources]
    # Lambda lies in the polyhedron, so it is the known point.
    system = remove_redundant(
        _canonical_system(g.dim, list(shared.values())), Lambda, _certificates(g)
    )
    kept = {id(row) for row in system.ineqs}
    records = tuple(
        Provenance(row, source, *labels, kept=id(row) in kept)
        for row, (_, source, labels) in zip(rows, sources)
    )
    return OrbitPolytope(g, Lambda, system, records)


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


def closed_form(g: GroupData, Lambda) -> OrbitPolytope:
    """The literal inequality lists known in closed form."""
    _require_assemblable(g)
    Lambda = Lambda if isinstance(Lambda, RatVec) else RatVec(Lambda)
    _validate_lambda(g, Lambda)
    tag, params = g.family.tag, g.family.params
    rows: list[AffineIneq] = list(g.chamber.ineqs)
    n = g.dim

    if tag == SP:
        for i in range(n):
            e_i = [1 if j == i else 0 for j in range(n)]
            rows.append(ineq_ge(e_i, Lambda[i]))
    elif tag == SU and params[1] == 1 and g.unitary_coords:
        lams = [RatVec([(n + 1 if j == k else 0) - 1 for j in range(n)]) for k in range(n)]
        for k in range(n):
            rows.append(ineq_ge(list(lams[k]), pairing(lams[k], Lambda)))
        for k in range(n - 1):
            rows.append(ineq_le(list(lams[k + 1]), pairing(lams[k], Lambda)))
    elif tag == SO_STAR and params[0] == 3:
        L1, L2, L3 = Lambda
        for signs in [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1), (-1, 1, -1)]:
            rhs = {
                (-1, 1, 1): -L1 + L2 + L3,
                (1, -1, 1): L1 - L2 + L3,
                (1, 1, -1): L1 + L2 - L3,
                (1, -1, -1): -L1 + L2 - L3,
                (-1, 1, -1): -L1 - L2 + L3,
            }[signs]
            rows.append(ineq_ge(list(signs), rhs))
    elif tag == SO_STAR and params[0] == 4:
        L = Lambda
        # The affine-cone rows: all-but-one positive, and coordinatewise.
        for k in range(4):
            signs = [1] * 4
            signs[k] = -1
            rows.append(ineq_ge(signs, sum(s * x for s, x in zip(signs, L))))
        for i in range(4):
            e_i = [1 if j == i else 0 for j in range(4)]
            rows.append(ineq_ge(e_i, L[i]))
        # The six extra rows.
        extra = [
            ((1, -1, 1, -1), (1, 1, -1, -1)),
            ((-1, 1, 1, -1), (1, -1, 1, -1)),
            ((1, -1, -1, 1), (1, -1, 1, -1)),
            ((-1, 1, -1, 1), (-1, 1, 1, -1)),
            ((-1, 1, -1, 1), (1, -1, -1, 1)),
            ((-1, -1, 1, 1), (-1, 1, -1, 1)),
        ]
        for lhs, lam_coeff in extra:
            rows.append(ineq_le(lhs, sum(c * x for c, x in zip(lam_coeff, L))))
    elif tag == SU and params == (2, 2):
        L1, L2, L3, L4 = Lambda
        rows.append(ineq_ge([1, 0, 0, 0], L1))
        rows.append(ineq_ge([0, 1, 0, 0], L2))
        rows.append(ineq_le([0, 0, 1, 0], L3))
        rows.append(ineq_le([0, 0, 0, 1], L4))
        c1 = L1 - L2 + L3 - L4
        rows.append(ineq_le([1, -1, -1, 1], c1))
        rows.append(ineq_le([-1, 1, 1, -1], c1))
        c2 = L1 - L2 - L3 + L4
        rows.append(ineq_le([-1, 1, -1, 1], c2))
        rows.append(ineq_le([-1, 1, -1, 1], -c2))
    else:
        raise DomainError(f"no closed-form polytope for {g.label()}")

    # The literal lists are kept as stated (canonicalized and deduplicated
    # but not redundancy-reduced).
    system = HPolyhedron(g.dim, rows)
    records = tuple(Provenance(r.canonical(), "closed-form") for r in rows)
    return OrbitPolytope(g, Lambda, system, records)


# ---------------------------------------------------------------------------
# The Horn oracle
# ---------------------------------------------------------------------------


@cache
def _oracle_rows(g: GroupData) -> tuple[int, tuple]:
    """The Horn oracle's rows for g, which depend on neither Lambda nor mu.

    Variables: the chain coefficients m_1 >= ... >= m_r >= 0 of the
    strongly orthogonal cone, plus (for the two-block family su(p, q),
    q >= 2) one central shift k.  Rows: the chain, then per unitary factor
    the Horn trace equality and all T inequalities for the triple
    (mu_block, dual(Lambda)_block, gamma(m)_block + k).

    Returns (number of variables, rows).  A row is (unit, scale, kind, I,
    J, cls): its bound is the sum of mu over the coordinates I plus the sum
    of dual(Lambda) over the coordinates J, and its normal is scale * unit,
    with unit primitive (sign-normalised for an equality; None for a zero
    normal).  Rows with the same unit and kind share the class number cls.
    """
    r = len(g.schmid)
    nvars = r + (1 if g.trace_zero else 0)

    def gamma_sum(coords) -> RatVec:
        """The sum of gamma(m)_c (+ k) over coords, as a linear form in m (and k)."""
        form = [sum((g.schmid[i][c] for c in coords), Fraction(0)) for i in range(r)]
        if g.trace_zero:
            form.append(Fraction(len(coords)))  # the central shift k on every coordinate
        return RatVec(form)

    rows = []
    # Chain: m_1 >= m_2 >= ... >= m_r >= 0.
    for i in range(r):
        c = [Fraction(0)] * nvars
        c[i] = Fraction(-1)
        if i + 1 < r:
            c[i + 1] = Fraction(1)
        rows.append((RatVec(c), LE, (), ()))
    for start, stop in g.weyl.block_ranges():
        block = tuple(range(start, stop))
        # Trace equality: sum(mu) + sum(lam*) = sum(gamma + k) over the block.
        rows.append((gamma_sum(block), EQ, block, block))
        for rr in range(1, len(block)):
            for t in horn.enum_T(rr, len(block)):
                I, J, L = (tuple(block[i - 1] for i in part) for part in (t.I, t.J, t.L))
                rows.append((gamma_sum(L), LE, I, J))
    classes: dict = {}
    out = []
    for normal, kind, I, J in rows:
        if normal.is_zero():
            out.append((None, None, kind, I, J, None))
            continue
        unit = primitive(list(normal))
        if kind == EQ and next(a for a in unit if a) < 0:
            unit = [-a for a in unit]
        k = next(j for j, a in enumerate(unit) if a)
        cls = classes.setdefault((tuple(unit), kind), len(classes))
        out.append((RatVec(unit), normal[k] / unit[k], kind, I, J, cls))
    return nvars, tuple(out)


def _oracle_system(g: GroupData, Lambda: RatVec, mu: RatVec) -> HPolyhedron:
    """The feasibility system deciding mu in Delta via the Horn route: the
    rows of `_oracle_rows` with their bounds filled in.

    The rows come out as the HPolyhedron constructor would make them, in
    the same order: a row <normal, x> <= b with normal = scale * unit and
    b / scale = p/q in lowest terms is canonically <q unit, x> <= p, a row
    that always holds is dropped, and repeats are dropped.
    """
    nvars, rows = _oracle_rows(g)
    m, ls = mu.entries, dual_weight(g, Lambda).entries
    seen = set()
    out = []
    for unit, scale, kind, I, J, cls in rows:
        b = sum(m[i] for i in I) + sum(ls[j] for j in J)
        if unit is None:
            if b >= 0 if kind == LE else b == 0:
                continue
            key = None
        else:
            b = b / scale
            key = (cls, b.numerator, b.denominator)
        if key in seen:
            continue
        seen.add(key)
        if unit is None:
            out.append(HPolyhedron.empty(nvars).ineqs[0])
        elif b.denominator == 1:
            out.append(AffineIneq(unit, b, kind))
        else:
            out.append(AffineIneq(unit.scale(b.denominator), b.numerator, kind))
    return _canonical_system(nvars, out)


def horn_oracle_member(g: GroupData, Lambda, mu, witness: bool = False):
    """Membership of mu in the moment polyhedron by the Horn route only.

    Returns a bool, or (bool, schmid-cone witness RatVec or None) when
    witness=True.  Points outside the dominant chamber are rejected
    outright (the polyhedron lives inside it).
    """
    _require_assemblable(g)
    Lambda = Lambda if isinstance(Lambda, RatVec) else RatVec(Lambda)
    mu = mu if isinstance(mu, RatVec) else RatVec(mu)
    _validate_lambda(g, Lambda)
    if mu.dim != g.dim:
        raise DomainError(f"mu dimension {mu.dim} != {g.dim}")
    if not g.chamber.contains(mu):
        return (False, None) if witness else False
    sys = _oracle_system(g, Lambda, mu)
    if not witness:
        return lp_feasible(sys)
    point = lp_witness(sys)
    if point is None:
        return False, None
    r = len(g.schmid)
    gamma = RatVec([0] * g.dim)
    for i in range(r):
        gamma = gamma + g.schmid[i].scale(point[i])
    return True, gamma


# ---------------------------------------------------------------------------
# Cross-check grid
# ---------------------------------------------------------------------------


# Most half-integer box points, (4 radius + 1)^dim, one cross-check may
# enumerate before filtering; su(2, 2) at radius 4 needs 17^4 = 83521.
GRID_CAP = 10**5


@dataclass
class CrossCheckReport:
    group: str
    Lambda: tuple
    radius: int
    points_checked: int
    disagreements: list

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        return (
            f"{self.group} Lambda={self.Lambda} radius={self.radius}: "
            f"{self.points_checked} dominant grid points, "
            f"{len(self.disagreements)} disagreements"
        )


def _grid_candidates(g: GroupData, Lambda: RatVec, radius: int):
    """Dominant points Lambda + delta, delta in the half-integer box."""
    steps = [Fraction(k, 2) for k in range(-2 * radius, 2 * radius + 1)]
    if g.trace_zero:
        # The trace fixes the last offset: minus the sum of the others.
        deltas = ((*head, -sum(head)) for head in itertools.product(steps, repeat=g.dim - 1))
    else:
        deltas = itertools.product(steps, repeat=g.dim)
    for delta in deltas:
        if abs(delta[-1]) > radius:
            continue
        mu = RatVec([a + d for a, d in zip(Lambda, delta)])
        if g.chamber.contains(mu):
            yield mu


def cross_check(g: GroupData, Lambda, radius: int) -> CrossCheckReport:
    """Compare assembled membership against the Horn oracle on the grid
    Lambda + [-radius, radius]^dim refined to half-integers.  Radius 0
    checks Lambda alone; a negative radius, or a box of more than GRID_CAP
    points, is a DomainError."""
    if radius < 0:
        raise DomainError(f"cross-check radius must be >= 0, got {radius}")
    if (4 * radius + 1) ** g.dim > GRID_CAP:
        raise DomainError(
            f"cross-check box of (4*{radius}+1)^{g.dim} points exceeds the cap {GRID_CAP}"
        )
    Lambda = Lambda if isinstance(Lambda, RatVec) else RatVec(Lambda)
    pol = assemble(g, Lambda)
    count = 0
    disagreements = []
    for mu in _grid_candidates(g, Lambda, radius):
        count += 1
        a = pol.system.contains(mu)
        b = horn_oracle_member(g, Lambda, mu)
        if a != b:
            disagreements.append(
                {"mu": [rat_str(x) for x in mu], "assembled": a, "oracle": b}
            )
    return CrossCheckReport(
        group=g.label(),
        Lambda=tuple(rat_str(x) for x in Lambda),
        radius=radius,
        points_checked=count,
        disagreements=disagreements,
    )


# ---------------------------------------------------------------------------
# Geometric property helpers (used by tests)
# ---------------------------------------------------------------------------

def noncompact_cone(g: GroupData) -> HPolyhedron:
    """H-representation of the cone spanned by the noncompact positive
    roots (facets used for the shifted-cone inclusion test)."""
    return cone_hull(list(g.noncompact_pos), g.dim)


def contained_in_shifted_cone(p: OrbitPolytope) -> bool:
    """polyhedron(Lambda) inside Lambda + cone(noncompact positives)."""
    g, Lambda = p.group, p.Lambda
    return implies_all(p.system, (
        AffineIneq(row.normal, row.bound + row.normal.dot(Lambda), row.kind)
        for row in noncompact_cone(g).ineqs
    ))


def contained_in_hol_closure(p: OrbitPolytope) -> bool:
    """polyhedron inside the closure of the holomorphic chamber."""
    return implies_all(p.system, (ineq_ge(list(beta), 0) for beta in p.group.noncompact_pos))
