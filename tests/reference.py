"""Reference code the tests read beside the engine.

`src/orbitope` ships the engine: assembly from admissible cocharacters and
m = 0 well-covering pairs, and the Horn oracle.  A function lives here,
not in the package, when no CLI verb, benchmark check or engine path calls
it and only tests do: second routes the engine is compared against (the
spectrum test, the closed-form admissible lists, the dominant-pair
assembly), the admissibility predicate (every kernel line the admissible
scan builds satisfies it), the dominance test over every compact positive
root (the group's chamber agrees with it on each such line), constructors
for writing test inputs, the golden readers the benchmark does not use,
the former canonical form of a row (the whole row scaled to coprime
integers, which `AffineIneq.integer_row` must equal), the double
description method for cones, and the cones and containment checks of the
geometric criteria.  This module imports the package, and the package
never imports it.  `tests/test_exact_only.py` scans it like a package
module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from importlib import resources
from math import gcd
from typing import Iterable, Sequence

from orbitope import exactmath, horn, polytope, wellcover
from orbitope.admissible import OneParamSubgroup, enumerate_admissible, sorted_admissible
from orbitope.exactmath import (
    EQ,
    LE,
    AffineIneq,
    DimensionError,
    DomainError,
    HPolyhedron,
    RatVec,
    implies_all,
    ineq_eq,
    ineq_ge,
    ineq_le,
    rat,
    row_reduce,
)
from orbitope.goldens import GoldenRecord
from orbitope.rootdata import SO, SO_STAR, SP, SU, GroupData
from orbitope.schubert import CohClass, Poly, SchubertRing, schubert_poly
from orbitope.weyl import Perm, WeylDescriptor, WeylElt
from orbitope.wellcover import WCPair, context

# ---------------------------------------------------------------------------
# Exact layer and goldens: the optimum, the infeasible row, the canonical
# row, the table readers
# ---------------------------------------------------------------------------


def lp_max(sys: HPolyhedron, objective: Sequence):
    """(status, value, witness) for max <objective, x> on sys: the equality
    substitution and simplex `lp_witness` runs, with the objective in
    phase 2.  The value is None unless the status is optimal."""
    obj = objective if isinstance(objective, RatVec) else RatVec(objective)
    if obj.dim != sys.dim:
        raise DimensionError(f"objective dim {obj.dim} vs system dim {sys.dim}")
    sub = exactmath._Substitution([r for r in sys.ineqs if r.kind == EQ], sys.dim)
    program = sub.program(sys.ineqs)
    if program is None:
        return exactmath.INFEASIBLE, None, None
    ints, den = sub.reduce(AffineIneq(obj, 0))
    status, y, _ = exactmath._simplex_le(program[0], sub.nfree, (ints[:-1], den))
    if status == exactmath.INFEASIBLE:
        return status, None, None
    witness = RatVec(sub.lift(y))
    return status, obj.dot(witness) if status == exactmath.OPTIMAL else None, witness


def is_infeasible_marker(row: AffineIneq) -> bool:
    """0 <= b with b < 0, or 0 = b with b != 0."""
    return not any(row.normal) and (row.bound < 0 if row.kind == LE else row.bound != 0)


def primitive(values: Sequence) -> list:
    """Scale a list of rationals by one positive rational to coprime
    integers (as Fractions); the zero list stays zero."""
    ints, _ = exactmath._int_row([rat(a) for a in values])
    g = gcd(*ints) or 1
    return [Fraction(a // g) for a in ints]


def canonical(normal: Sequence, bound, kind: str = LE) -> tuple:
    """The row <normal, x> (<=|=) bound as (coefficients, bound, kind) of
    integers of gcd 1: the whole row scaled by one positive rational, an
    equality's leading nonzero coefficient made positive.  A zero normal
    gives 0 <= 0, 0 = 0 or the infeasible marker 0 <= -1.  This is the
    integer row `AffineIneq.integer_row` prints."""
    normal, bound = [rat(a) for a in normal], rat(bound)
    if not any(normal):
        if kind == EQ:
            return tuple(normal), Fraction(0 if bound == 0 else -1), EQ if bound == 0 else LE
        return tuple(normal), Fraction(0 if bound >= 0 else -1), LE
    scaled = primitive([*normal, bound])
    if kind == EQ and next(a for a in scaled if a != 0) < 0:
        scaled = [-a for a in scaled]
    return tuple(scaled[:-1]), scaled[-1], kind


def all_ids() -> list[str]:
    """The id of every golden table shipped with the package."""
    root = resources.files("orbitope").joinpath("goldens")
    return sorted(
        f.name[: -len(".json")]
        for chapter in root.iterdir() if chapter.is_dir()
        for f in chapter.iterdir() if f.name.endswith(".json")
    )


def triples(rec: GoldenRecord, r: int, n: int) -> list[horn.HornTriple]:
    if rec.kind != "horn_triples":
        raise ValueError(f"{rec.id} is not a horn_triples golden")
    return [
        horn.HornTriple(n, tuple(t["I"]), tuple(t["J"]), tuple(t["L"]))
        for t in rec.payload["sets"][f"{r},{n}"]
    ]


def instantiate_rows(rows: Iterable[dict], Lambda: RatVec, dim: int) -> HPolyhedron:
    """Turn symbolic rows into a concrete inequality system at Lambda."""
    make = {">=": ineq_ge, "<=": ineq_le, "=": ineq_eq}
    out: list[AffineIneq] = []
    for row in rows:
        lamc = row.get("lam", [0] * dim)
        bound = RatVec(lamc).dot(Lambda) if any(c != 0 for c in lamc) else 0
        if row["op"] not in make:
            raise ValueError(f"bad op {row['op']!r}")
        out.append(make[row["op"]](row["xi"], bound))
    return HPolyhedron(dim, out)


def polytope_system(rec: GoldenRecord, instance: str, Lambda: RatVec) -> HPolyhedron:
    if rec.kind != "polytope_rows":
        raise ValueError(f"{rec.id} is not a polytope_rows golden")
    return instantiate_rows(rec.payload["instances"][instance], Lambda, Lambda.dim)


# ---------------------------------------------------------------------------
# Double description: cones from rays and rays from cones
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
    arithmetic is on integers, the rows' integer normals among them.  The
    lineality vectors start as the unit vectors, and each stays nonzero in
    the coordinate it started with, where every other lineality vector and
    every ray is 0; so the rays come out reduced modulo the lineality
    space.
    """
    if any(r.bound != 0 for r in sys.ineqs):
        raise DomainError("cone_rays needs every bound to be 0")
    rows = []
    for r in sys.ineqs:
        a = list(r.normal)
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


# ---------------------------------------------------------------------------
# Horn: spectra, saturation and the explicit triple families
# ---------------------------------------------------------------------------


def enum_U(r: int, n: int) -> tuple[horn.HornTriple, ...]:
    """All balanced triples of cardinality r, lexicographic in (I, J, L):
    `enum_T`'s loop with no filters."""
    horn._check_bounds(r, n)
    return horn._balanced(r, n, [], [])


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
        for t in horn.enum_T(r, n):
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


def triple_via_eigen(t: horn.HornTriple) -> bool:
    """Membership test of Theorem-style duality: (I, J, L) lies in T_r^n
    exactly when (lambda(I), lambda(J), lambda(L)) is an admissible
    Hermitian spectrum triple at size r."""
    lam_i = partition_of(t.I)
    lam_j = partition_of(t.J)
    lam_l = partition_of(t.L)
    if len(t.I) == 1:
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


def balanced(t: horn.HornTriple) -> bool:
    """sum(I) + sum(J) = sum(L) + r(r+1)/2, the condition of U_r^n."""
    r = len(t.I)
    return sum(t.I) + sum(t.J) == sum(t.L) + r * (r + 1) // 2


def triple_key(t: horn.HornTriple) -> tuple:
    """(I, J, L), the order `enum_T` lists its triples in."""
    return (t.I, t.J, t.L)


# ---------------------------------------------------------------------------
# Weyl: identities, simple reflections, codes, words, text and the special
# elements
# ---------------------------------------------------------------------------


def perm_identity(n: int) -> Perm:
    return Perm(range(1, n + 1))


def identity(group: WeylDescriptor) -> WeylElt:
    return WeylElt(perm_identity(d) for d in group.degrees)


def simple(group: WeylDescriptor, factor: int, i: int) -> WeylElt:
    """s_i in the given factor, the identity in every other."""
    perms = [perm_identity(d) for d in group.degrees]
    perms[factor] = Perm.simple(group.degrees[factor], i)
    return WeylElt(perms)


def code(perm: Perm) -> tuple[int, ...]:
    """Lehmer code c_i = #{j > i : w(j) < w(i)}."""
    imgs = perm.images
    n = perm.degree
    return tuple(sum(1 for j in range(i + 1, n) if imgs[j] < imgs[i]) for i in range(n))


def from_word(n: int, word: Sequence[int]) -> Perm:
    """The product s_{a1} s_{a2} ... s_{ak} of S_n, composed right to left."""
    w = perm_identity(n)
    for a in word:
        w = w * Perm.simple(n, a)
    return w


def from_words(group: WeylDescriptor, words: Sequence[Sequence[int]]) -> WeylElt:
    """The element of group with one word per factor."""
    return WeylElt(from_word(d, w) for d, w in zip(group.degrees, words))


def from_text(text: str) -> WeylElt:
    """The inverse of `WeylElt.text`."""
    return WeylElt(Perm(int(t) for t in part.split()) for part in text.split("|"))


def special_elements(r: int):
    """The elements what_k = s1...s_{k-1} and wcheck_k = s_{r-1}...s_k of S_r.

    what_1 = wcheck_r = identity; l(what_k) = k-1 and l(wcheck_k) = r-k.
    They satisfy w0 * wQhat * what_k = wcheck_k, where wQhat is the longest
    element of the stabilizer of 1.
    """
    if r < 1:
        raise ValueError("r >= 1 required")
    hats = [from_word(r, list(range(1, k))) for k in range(1, r + 1)]
    checks = [from_word(r, list(range(r - 1, k - 1, -1))) for k in range(1, r + 1)]
    return hats, checks


def hat_stabilizer_longest(r: int) -> Perm:
    """Longest element of the stabilizer of 1 in S_r (S_{r-1} on {2..r})."""
    return Perm([1] + list(range(r, 1, -1))) if r > 1 else perm_identity(1)


# ---------------------------------------------------------------------------
# Schubert: the polynomial of a permutation, Theta, Poincare duality
# ---------------------------------------------------------------------------


def schubert_poly_dict(perm: Perm) -> Poly:
    return dict(schubert_poly(perm.trim()))


def one(ring: SchubertRing) -> CohClass:
    """The unit class, s_id."""
    return ring.basis_class(identity(ring.group))


def scale(c: CohClass, k: int) -> CohClass:
    return CohClass({w: k * v for w, v in c.terms.items()})


def theta(ring: SchubertRing, mu: Sequence[int]) -> CohClass:
    """The degree-2 class of a weight, sum of (mu_i - mu_{i+1}) s_i
    blockwise: Monk's rule on the unit class, whose covers are the simple
    reflections.  Central (trace) parts of mu contribute nothing."""
    return ring.chevalley_mult(one(ring), mu)


def duality_check(ring: SchubertRing, w: WeylElt, w_prime: WeylElt, wl: WeylElt) -> bool:
    """Whether sigma_w . sigma_{w'} = [pt] on the quotient by the
    parabolic whose longest element is wl = w_lambda, for w, w' longest
    coset representatives with l(w) + l(w') >= l(w0) + l(w_lambda).

    Verified in the Borel model through the injective pullback: the
    shortest representatives w w_lambda and w' w_lambda multiply to the
    class of w0 w_lambda exactly when w' = w0 w w_lambda.
    """
    w0 = ring.group.longest()
    if w.length() + w_prime.length() < w0.length() + wl.length():
        raise ValueError("duality_check needs l(w) + l(w') >= l(w0) + l(w_lambda)")
    for u in (w, w_prime):
        if (u * wl).length() != u.length() - wl.length():
            raise ValueError("w and w' must be longest coset representatives")
    com = ring.cup(ring.basis_class(w * wl), ring.basis_class(w_prime * wl))
    expected = w_prime == w0 * w * wl
    got = com == ring.basis_class(w0 * wl)
    if got != expected:
        raise AssertionError("polynomial model disagrees with the coset duality rule")
    return got


# ---------------------------------------------------------------------------
# Root data and admissible cocharacters: the closed forms and the predicate
# ---------------------------------------------------------------------------


def schmid_cone(g: GroupData) -> HPolyhedron:
    """H-representation of { sum m_i g_i : m_1 >= ... >= m_r >= 0 }.

    That set is the cone spanned by the partial sums g_1, g_1 + g_2, ...;
    degenerate r = 0 gives the origin.
    """
    sums = []
    for gamma in g.schmid:
        sums.append(tuple(a + b for a, b in zip(sums[-1], gamma)) if sums else gamma)
    return cone_hull(sums, g.dim)


def _lam_kl(n: int, k: int, l: int) -> OneParamSubgroup:
    """(1,...,1, 0,...,0, -1,...,-1) with k ones and l minus-ones."""
    return OneParamSubgroup([1] * k + [0] * (n - k - l) + [-1] * l)


def closed_form_admissible(g: GroupData) -> set[OneParamSubgroup]:
    """The literal admissible lists, family by family; they must equal
    `enumerate_admissible` as sets."""
    tag = g.family.tag
    if tag == SP:
        n = g.family.params[0]
        out = {OneParamSubgroup([1] + [0] * (n - 1)), OneParamSubgroup([0] * (n - 1) + [-1])}
        for k in range(1, n):
            for l in range(1, n - k + 1):
                out.add(_lam_kl(n, k, l))
        return out

    if tag == SU:
        p, q = g.family.params
        if q == 1 and g.unitary_coords:
            n = p
            return {
                OneParamSubgroup([n] + [-1] * (n - 1)),
                OneParamSubgroup([1] * (n - 1) + [-n]),
            }
        out: set[OneParamSubgroup] = set()
        if q >= 2:
            for k in range(1, p):
                for l in range(1, q):
                    d = gcd(p + q - k - l, k + l)
                    a = (p + q - k - l) // d
                    b = -(k + l) // d
                    out.add(OneParamSubgroup([a] * k + [b] * (p - k) + [a] * l + [b] * (q - l)))
        out.add(OneParamSubgroup([1] * (p + q - 1) + [1 - p - q]))          # lam_{p,q-1}
        out.add(OneParamSubgroup([1] * (p - 1) + [1 - p - q] + [1] * q))    # lam_{p-1,q}
        out.add(OneParamSubgroup([-1] * p + [p + q - 1] + [-1] * (q - 1)))  # lam_{0,1}
        out.add(OneParamSubgroup([p + q - 1] + [-1] * (p + q - 1)))         # lam_{1,0}
        if q == 1:
            # In full coordinates only the two kernel-spanning ones remain.
            out = {
                OneParamSubgroup([p + q - 1] + [-1] * (p + q - 1)),
                OneParamSubgroup([1] * (p - 1) + [1 - p - q] + [1] * q),
            }
        return out

    if tag == SO_STAR:
        n = g.family.params[0]
        if n == 3:
            return {OneParamSubgroup([1, -1, -1]), OneParamSubgroup([1, 1, -1])}
        out = {OneParamSubgroup([1] + [0] * (n - 1)), OneParamSubgroup([0] * (n - 1) + [-1])}
        for k in range(1, n):
            out.add(_lam_kl(n, k, n - k))
        for k in range(1, n - 3):
            for l in range(1, n - k - 2):
                out.add(_lam_kl(n, k, l))
        return out

    if tag == SO:
        p = g.family.params[0]
        m = p // 2
        odd = p % 2 == 1
        lam0 = OneParamSubgroup([1] + [0] * m)
        lam1p = OneParamSubgroup([1] * m + [1])
        lam1m = OneParamSubgroup([1] * m + [-1])
        if odd:
            return {lam0, lam1p, lam1m}
        lamm1p = OneParamSubgroup([1] * (m - 1) + [-1, 1])
        lamm1m = OneParamSubgroup([1] * (m - 1) + [-1, -1])
        return {lam0, lam1p, lam1m, lamm1p, lamm1m}

    raise ValueError(f"unknown family {tag!r}")


def kernel_root_span_dim(g: GroupData, lam: Sequence) -> int:
    """Rank of { b in noncompact_pos : <lam, b> = 0 } (plain matrix rank;
    the roots already lie in the torus-rank subspace for su(p, q))."""
    mat = [b for b in g.noncompact_pos if _idot(b, lam) == 0]
    return len(row_reduce(mat, range(g.dim))[2])


def is_admissible(g: GroupData, lam: Sequence) -> bool:
    """The defining property: the roots vanishing on lam span a hyperplane
    of the torus (rank dim(t) - 1; dim(t) is one less than the coordinates
    for su(p, q), whose torus has trace zero)."""
    torus_rank = g.dim - (1 if g.trace_zero else 0)
    return kernel_root_span_dim(g, lam) == torus_rank - 1


def is_dominant_ops(g: GroupData, lam: Sequence) -> bool:
    """lam pairs >= 0 with every compact positive root (the torus/SO(2)
    coordinates left unconstrained fall out automatically): dominance
    stated over all the compact roots, where `GroupData.chamber` reads the
    simple ones."""
    return all(_idot(alpha, lam) >= 0 for alpha in g.compact_pos)


# ---------------------------------------------------------------------------
# Well-covering: module size, dominant pairs, the full scan, the trivial pair
# ---------------------------------------------------------------------------


def total_dim(graded: wellcover.GradedModule) -> int:
    return sum(graded.dims.values())


def is_dominant_pair(g: GroupData, pair: WCPair) -> bool:
    """The criterion with the equality in (i) dropped to nonvanishing;
    every well-covering pair is dominant."""
    ctx = context(g, pair.lam)
    wellcover._check_pair_shape(ctx, pair)
    if not ctx.graded.level_nonempty(pair.m):
        return False
    return not wellcover._criterion_product(ctx, pair).is_zero()


def enumerate_m0_dominant(g: GroupData, lam: OneParamSubgroup) -> list[WCPair]:
    """All m = 0 dominant pairs for lam, in sorted order (a superset of
    `enumerate_m0`)."""
    ctx = context(g, lam)
    candidates = (WCPair(w, w_prime, 0, lam) for w in ctx.reps for w_prime in ctx.reps)
    return list(wellcover._sorted_pairs(p for p in candidates if is_dominant_pair(g, p)))


def level_bounds(graded: wellcover.GradedModule) -> tuple[int, int]:
    """The lowest and the highest weight level of the module; the trivial
    line sits at level 0."""
    levels = (*graded.levels, 0)
    return min(levels), max(levels)


def scan_well_covering(g: GroupData, lam: OneParamSubgroup) -> list[WCPair]:
    """All well-covering triples (w, w', m) for m from the lowest level to
    the highest plus 2."""
    ctx = context(g, lam)
    lowest, highest = level_bounds(ctx.graded)
    out = []
    for m in range(lowest, highest + 3):
        for w in ctx.reps:
            for w_prime in ctx.reps:
                pair = WCPair(w, w_prime, m, lam)
                if ctx.graded.level_nonempty(m) and wellcover.is_well_covering(g, pair):
                    out.append(pair)
    return out


def trivial_pair(g: GroupData, lam: OneParamSubgroup, w: WeylElt, m: int) -> WCPair:
    """The pair (w, w0 w w_lambda, m)."""
    ctx = context(g, lam)
    return WCPair(w, ctx.w0 * w * ctx.w_lambda, m, lam)


# ---------------------------------------------------------------------------
# Polytope: the dominant-pair assembly and the geometric inclusions
# ---------------------------------------------------------------------------


@cache
def relaxed_rows(g: GroupData) -> polytope._LinearRows:
    """The rows assembly would offer with dominant pairs in place of
    well-covering ones: the chamber's, then one row per m = 0 dominant pair
    of each admissible cocharacter.  Every well-covering pair is dominant,
    and by the dominant-pair theorem the extra rows are implied: both row
    sets cut out one polyhedron for every Lambda."""
    rows = [(row.normal, [0] * g.dim, row.kind) for row in g.chamber.ineqs]
    for lam in sorted_admissible(enumerate_admissible(g)):
        rows += [(*pair.row_vectors, LE) for pair in enumerate_m0_dominant(g, lam)]
    return polytope._LinearRows(g.dim, rows)


def noncompact_cone(g: GroupData) -> HPolyhedron:
    """H-representation of the cone spanned by the noncompact positive
    roots (facets used for the shifted-cone inclusion test)."""
    return cone_hull(list(g.noncompact_pos), g.dim)


def contained_in_shifted_cone(p: polytope.OrbitPolytope) -> bool:
    """polyhedron(Lambda) inside Lambda + cone(noncompact positives)."""
    g, Lambda = p.group, p.Lambda
    return implies_all(p.system, (
        AffineIneq(row.normal, row.bound + RatVec(row.normal).dot(Lambda), row.kind)
        for row in noncompact_cone(g).ineqs
    ))


def contained_in_hol_closure(p: polytope.OrbitPolytope) -> bool:
    """polyhedron inside the closure of the holomorphic chamber."""
    return implies_all(p.system, (ineq_ge(beta, 0) for beta in p.group.noncompact_pos))
