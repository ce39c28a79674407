"""Reference code the tests read beside the engine.

`src/orbitope` ships the engine: assembly from admissible cocharacters and
m = 0 well-covering pairs, and the Horn oracle.  A function lives here,
not in the package, when no CLI verb, benchmark check or engine path calls
it and only tests do: second routes the engine is compared against (the
spectrum test, the closed-form admissible lists, the dominant-pair
assembly), the admissibility predicate (every kernel line the admissible
scan builds satisfies it), the dominance test over every compact positive
root (the group's chamber agrees with it on each such line), the shape
of a Weyl element and of a cocharacter (`is_weyl`, `is_cocharacter`,
asserted on every one the engine builds), constructors for writing test
inputs, the golden readers the benchmark does not use, the former
canonical form of a row (the whole row scaled to coprime integers, which
`AffineIneq.integer_row` must equal), the hull of a cone's generators,
and the cones and containment checks of the geometric criteria.  This module imports the package, and the package never imports
it.  `tests/test_exact_only.py` scans it like a package module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from importlib import resources
from math import gcd
from typing import Iterable, Sequence

from orbitope import exactmath, horn, polytope, wellcover
from orbitope.admissible import enumerate_admissible, sorted_admissible
from orbitope.cones import _idot, cone_rays
from orbitope.exactmath import (
    EQ,
    LE,
    AffineIneq,
    DimensionError,
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
from orbitope.rootdata import SO, SO_STAR, SP, SU, GroupData, in_hol_chamber
from orbitope.schubert import Coh, Poly, SchubertRing, _trim_perm, schubert_poly
from orbitope.weyl import Weyl, WeylDescriptor, length, mul
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


def benchmark_lambda(g, rng):
    """A strictly holomorphic orbit parameter drawn as the benchmark draws
    it: sorted half-integers in [0, 12], shifted to trace zero where the
    group needs it."""
    while True:
        vals = sorted((Fraction(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(g.dim)),
                      reverse=True)
        if g.trace_zero:
            shift = sum(vals) / g.dim
            vals = [v - shift for v in vals]
        if in_hol_chamber(g, RatVec(vals)):
            return RatVec(vals)


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


def triples(rec: GoldenRecord, r: int, n: int) -> list[horn.Triple]:
    if rec.kind != "horn_triples":
        raise ValueError(f"{rec.id} is not a horn_triples golden")
    return [
        (tuple(t["I"]), tuple(t["J"]), tuple(t["L"]))
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
# Double description: cones from rays
# ---------------------------------------------------------------------------


def cone_hull(generators: Sequence[RatVec], dim: int) -> HPolyhedron:
    """H-representation of the convex cone spanned by `generators` (the
    origin when there are none), by polarity through `cone_rays`.  With
    (L, R) the lineality basis and extreme rays of the polar cone
    { y : <g, y> <= 0 }, the cone is { x : <l, x> = 0 for l in L,
    <r, x> <= 0 for r in R }, and each ray is a facet, so no row is
    redundant."""
    lineality, rays = cone_rays(HPolyhedron(dim, [AffineIneq(g, 0) for g in generators]))
    return HPolyhedron(
        dim, [*(AffineIneq(l, 0, EQ) for l in lineality), *(AffineIneq(r, 0) for r in rays)]
    )


# ---------------------------------------------------------------------------
# Horn: spectra, saturation and the explicit triple families
# ---------------------------------------------------------------------------


def enum_U(r: int, n: int) -> tuple[horn.Triple, ...]:
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
        for I, J, L in horn.enum_T(r, n):
            lhs = sum(a[i - 1] for i in I) + sum(b[j - 1] for j in J)
            if lhs < sum(c[k - 1] for k in L):
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


def triple_via_eigen(t: horn.Triple) -> bool:
    """Membership test of Theorem-style duality: (I, J, L) lies in T_r^n
    exactly when (lambda(I), lambda(J), lambda(L)) is an admissible
    Hermitian spectrum triple at size r."""
    lam_i, lam_j, lam_l = (partition_of(part) for part in t)
    if len(lam_i) == 1:
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


def balanced(t: horn.Triple) -> bool:
    """sum(I) + sum(J) = sum(L) + r(r+1)/2, the condition of U_r^n."""
    I, J, L = t
    r = len(I)
    return sum(I) + sum(J) == sum(L) + r * (r + 1) // 2


# ---------------------------------------------------------------------------
# Weyl: identities, simple reflections, codes, words, text and the special
# elements
# ---------------------------------------------------------------------------


def is_perm(images) -> bool:
    """A tuple of ints that permutes 1..len(images), in one-line notation."""
    return (isinstance(images, tuple) and all(isinstance(i, int) for i in images)
            and sorted(images) == list(range(1, len(images) + 1)))


def is_weyl(w, group: WeylDescriptor) -> bool:
    """An element of group: a nonempty tuple of permutations of 1..d, one
    per degree d of group, in order."""
    return (isinstance(w, tuple) and len(w) == len(group.degrees) >= 1
            and all(is_perm(p) and len(p) == d for p, d in zip(w, group.degrees)))


def is_cocharacter(lam) -> bool:
    """An indivisible integer cocharacter: a nonempty tuple of ints of gcd 1."""
    return (isinstance(lam, tuple) and len(lam) >= 1
            and all(isinstance(c, int) for c in lam) and gcd(*lam) == 1)


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    """t_ab of S_n; s_i is t_{i,i+1}."""
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"transposition ({a} {b}) out of range for S_{n}")
    imgs = list(range(1, n + 1))
    imgs[a - 1], imgs[b - 1] = imgs[b - 1], imgs[a - 1]
    return tuple(imgs)


def compose(*perms: tuple[int, ...]) -> tuple[int, ...]:
    """The product of permutations of one degree, composed right to left
    by `weyl.mul` on one-factor elements."""
    return reduce(mul, ((p,) for p in perms))[0]


def perm_length(perm: tuple[int, ...]) -> int:
    """The length of one permutation, as a one-factor element."""
    return length((perm,))


def inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, img in enumerate(perm, start=1):
        inv[img - 1] = i
    return tuple(inv)


def identity(group: WeylDescriptor) -> Weyl:
    return tuple(perm_identity(d) for d in group.degrees)


def simple(group: WeylDescriptor, factor: int, i: int) -> Weyl:
    """s_i in the given factor, the identity in every other."""
    perms = [perm_identity(d) for d in group.degrees]
    perms[factor] = from_word(group.degrees[factor], [i])
    return tuple(perms)


def code(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Lehmer code c_i = #{j > i : w(j) < w(i)}."""
    n = len(perm)
    return tuple(sum(1 for j in range(i + 1, n) if perm[j] < perm[i]) for i in range(n))


def from_word(n: int, word: Sequence[int]) -> tuple[int, ...]:
    """The product s_{a1} s_{a2} ... s_{ak} of S_n, composed right to left."""
    if not all(1 <= a <= n - 1 for a in word):
        raise ValueError(f"simple reflection index out of range for S_{n}: {word}")
    return compose(perm_identity(n), *(transposition(n, a, a + 1) for a in word))


def from_words(group: WeylDescriptor, words: Sequence[Sequence[int]]) -> Weyl:
    """The element of group with one word per factor."""
    return tuple(from_word(d, w) for d, w in zip(group.degrees, words))


def from_text(text: str) -> Weyl:
    """The inverse of `weyl.text`."""
    return tuple(tuple(int(t) for t in part.split()) for part in text.split("|"))


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


def hat_stabilizer_longest(r: int) -> tuple[int, ...]:
    """Longest element of the stabilizer of 1 in S_r (S_{r-1} on {2..r})."""
    return (1,) + tuple(range(r, 1, -1))


# ---------------------------------------------------------------------------
# Schubert: the polynomial of a permutation, Theta, Poincare duality
# ---------------------------------------------------------------------------


def schubert_poly_dict(perm: tuple[int, ...]) -> Poly:
    return dict(schubert_poly(_trim_perm(perm)))


def one(ring: SchubertRing) -> Coh:
    """The unit class, s_id."""
    return {identity(ring.group): 1}


def scale(c: Coh, k: int) -> Coh:
    return {w: k * v for w, v in c.items() if k}


def add(a: Coh, b: Coh, k: int = 1) -> Coh:
    """a + k b, with the coefficients that cancel dropped."""
    out = dict(a)
    for w, v in b.items():
        out[w] = out.get(w, 0) + k * v
    return {w: v for w, v in out.items() if v}


def theta(ring: SchubertRing, mu: Sequence[int]) -> Coh:
    """The degree-2 class of a weight, sum of (mu_i - mu_{i+1}) s_i
    blockwise: Monk's rule on the unit class, whose covers are the simple
    reflections.  Central (trace) parts of mu contribute nothing."""
    return ring.chevalley_mult(one(ring), mu)


def duality_check(ring: SchubertRing, w: Weyl, w_prime: Weyl, wl: Weyl) -> bool:
    """Whether sigma_w . sigma_{w'} = [pt] on the quotient by the
    parabolic whose longest element is wl = w_lambda, for w, w' longest
    coset representatives with l(w) + l(w') >= l(w0) + l(w_lambda).

    Verified in the Borel model through the injective pullback: the
    shortest representatives w w_lambda and w' w_lambda multiply to the
    class of w0 w_lambda exactly when w' = w0 w w_lambda.
    """
    w0 = ring.group.longest()
    if length(w) + length(w_prime) < length(w0) + length(wl):
        raise ValueError("duality_check needs l(w) + l(w') >= l(w0) + l(w_lambda)")
    for u in (w, w_prime):
        if length(mul(u, wl)) != length(u) - length(wl):
            raise ValueError("w and w' must be longest coset representatives")
    com = ring.cup({mul(w, wl): 1}, {mul(w_prime, wl): 1})
    expected = w_prime == mul(mul(w0, w), wl)
    got = com == {mul(w0, wl): 1}
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


def _lam_kl(n: int, k: int, l: int) -> tuple[int, ...]:
    """(1,...,1, 0,...,0, -1,...,-1) with k ones and l minus-ones."""
    return (1,) * k + (0,) * (n - k - l) + (-1,) * l


def closed_form_admissible(g: GroupData) -> set[tuple[int, ...]]:
    """The literal admissible lists, family by family; they must equal
    `enumerate_admissible` as sets."""
    tag = g.family.tag
    if tag == SP:
        n = g.family.params[0]
        out = {tuple([1] + [0] * (n - 1)), tuple([0] * (n - 1) + [-1])}
        for k in range(1, n):
            for l in range(1, n - k + 1):
                out.add(_lam_kl(n, k, l))
        return out

    if tag == SU:
        p, q = g.family.params
        if q == 1 and g.unitary_coords:
            n = p
            return {
                tuple([n] + [-1] * (n - 1)),
                tuple([1] * (n - 1) + [-n]),
            }
        out: set[tuple[int, ...]] = set()
        if q >= 2:
            for k in range(1, p):
                for l in range(1, q):
                    d = gcd(p + q - k - l, k + l)
                    a = (p + q - k - l) // d
                    b = -(k + l) // d
                    out.add(tuple([a] * k + [b] * (p - k) + [a] * l + [b] * (q - l)))
        out.add(tuple([1] * (p + q - 1) + [1 - p - q]))          # lam_{p,q-1}
        out.add(tuple([1] * (p - 1) + [1 - p - q] + [1] * q))    # lam_{p-1,q}
        out.add(tuple([-1] * p + [p + q - 1] + [-1] * (q - 1)))  # lam_{0,1}
        out.add(tuple([p + q - 1] + [-1] * (p + q - 1)))         # lam_{1,0}
        if q == 1:
            # In full coordinates only the two kernel-spanning ones remain.
            out = {
                tuple([p + q - 1] + [-1] * (p + q - 1)),
                tuple([1] * (p - 1) + [1 - p - q] + [1] * q),
            }
        return out

    if tag == SO_STAR:
        n = g.family.params[0]
        if n == 3:
            return {(1, -1, -1), (1, 1, -1)}
        out = {tuple([1] + [0] * (n - 1)), tuple([0] * (n - 1) + [-1])}
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
        lam0 = tuple([1] + [0] * m)
        lam1p = tuple([1] * m + [1])
        lam1m = tuple([1] * m + [-1])
        if odd:
            return {lam0, lam1p, lam1m}
        lamm1p = tuple([1] * (m - 1) + [-1, 1])
        lamm1m = tuple([1] * (m - 1) + [-1, -1])
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
    return bool(wellcover._criterion_product(ctx, pair))


def enumerate_m0_dominant(g: GroupData, lam: tuple[int, ...]) -> list[WCPair]:
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


def scan_well_covering(g: GroupData, lam: tuple[int, ...]) -> list[WCPair]:
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


def trivial_pair(g: GroupData, lam: tuple[int, ...], w: Weyl, m: int) -> WCPair:
    """The pair (w, w0 w w_lambda, m)."""
    ctx = context(g, lam)
    return WCPair(w, mul(mul(ctx.w0, w), ctx.w_lambda), m, lam)


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
