"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line (run pytest with -s to see them
on success).  All comparisons are exact; the only tolerances are the
stated wall-clock budgets, asserted per criterion.
"""

import itertools
import random
import time
from fractions import Fraction as F

from orbitope import goldens
from orbitope.admissible import OneParamSubgroup, enumerate_admissible, sorted_admissible
from orbitope.cones import cone_rays
from orbitope.exactmath import (
    AffineIneq,
    HPolyhedron,
    RatVec,
    _dot,
    implies_all,
    ineq_ge,
    lp_feasible,
    poly_equal,
)
from orbitope.horn import enum_T
from orbitope.polytope import (
    _assembly_rows,
    _closed_form_rows,
    _oracle_rows,
    assemble,
    closed_form,
    cross_check,
    member,
)
from orbitope.rootdata import GroupFamily, build, in_hol_chamber
from orbitope.schubert import SchubertRing
from orbitope.weyl import Perm, WeylElt, max_coset_reps, stabilizer_parabolic
from orbitope.wellcover import context, enumerate_m0
from reference import (
    closed_form_admissible,
    contained_in_hol_closure,
    contained_in_shifted_cone,
    duality_check,
    enum_U,
    family_bar,
    family_bar_star,
    family_L,
    family_L_tilde,
    from_word,
    from_words,
    one,
    polytope_system,
    relaxed_rows,
    scan_well_covering,
    simple,
    special_elements,
    theta,
    triple_via_eigen,
    triples,
)


def g_of(spec):
    return build(GroupFamily.parse(spec))


def report(number: int, name: str, ok: bool, elapsed: float, budget: float,
           detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"ACCEPTANCE {number} ({name}): {status} "
            f"[{elapsed:.2f}s / {budget:.0f}s budget]")
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


# -- 1. closed-form reproduction --------------------------------------------

CLOSED_FORM_CASES = [
    ("sp:n=2", [3, 2], "Thm7.3.1", "n=2"),
    ("sp:n=3", [4, 3, 2], "Thm7.3.1", "n=3"),
    ("sp:n=4", [5, 4, 3, 2], "Thm7.3.1", "n=4"),
    ("su:p=2,q=1", [2, 0], "Thm7.3.4", "n=2"),
    ("su:p=3,q=1", [3, 1, -1], "Thm7.3.4", "n=3"),
    ("su:p=4,q=1", [4, 2, 0, -2], "Thm7.3.4", "n=4"),
    ("so_star:n=3", [3, 2, 1], "Thm7.3.6", "n=3"),
    ("so_star:n=4", [4, 3, 2, 1], "Thm7.3.8", "n=4"),
    ("su:p=2,q=2", [3, 1, -1, -3], "Thm7.3.11", "p=2,q=2"),
]


def test_criterion_1_closed_forms():
    ok = True
    detail = []
    worst = 0.0
    for spec, lam, golden_id, instance in CLOSED_FORM_CASES:
        g = g_of(spec)
        Lambda = RatVec(lam)
        t0 = time.perf_counter()
        assembled = assemble(g, Lambda)
        cf = closed_form(g, Lambda)
        same = poly_equal(assembled.system, cf.system)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        golden_sys = polytope_system(goldens.load(golden_id), instance, Lambda)
        same_golden = poly_equal(assembled.system, golden_sys)
        if not (same and same_golden):
            ok = False
            detail.append(f"{spec}: assembled != closed form/golden")
        if elapsed >= 1.0:
            ok = False
            detail.append(f"{spec}: {elapsed:.2f}s >= 1s")
    report(1, "closed-form reproduction", ok, worst, 1.0, "; ".join(detail))


# -- 2. admissible enumeration ------------------------------------------------

ADMISSIBLE_CASES = {
    "Thm7.2.5": [f"sp:n={n}" for n in range(1, 6)],
    "Thm7.2.1": [f"su:p={p},q=1" for p in (2, 3, 4, 5)],
    "Thm7.2.10": ["su:p=2,q=2", "su:p=3,q=2", "su:p=4,q=2", "su:p=3,q=3"],
    "Thm7.2.7": [f"so_star:n={n}" for n in (3, 4, 5, 6)],
    "Thm7.2.14": ["so:p=4", "so:p=6"],
    "Thm7.2.16": ["so:p=3", "so:p=5", "so:p=7"],
}


def test_criterion_2_admissible_sets():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for golden_id, specs in ADMISSIBLE_CASES.items():
        rec = goldens.load(golden_id)
        for spec in specs:
            g = g_of(spec)
            enum = {l.coords for l in enumerate_admissible(g)}
            closed = {l.coords for l in closed_form_admissible(g)}
            golden = goldens.admissible_vectors(rec, spec)
            if not (enum == closed == golden):
                ok = False
                detail.append(spec)
    for n in range(1, 6):
        g = g_of(f"sp:n={n}")
        if len(enumerate_admissible(g)) != n * (n - 1) // 2 + 2:
            ok = False
            detail.append(f"sp:n={n} cardinality")
    report(2, "admissible enumeration", ok, time.perf_counter() - t0, 10.0,
           "; ".join(detail))


# -- 3. Horn self-consistency ---------------------------------------------


def test_criterion_3_horn():
    t0 = time.perf_counter()
    ok = True
    detail = []
    # byte-exact reproduction of the two worked examples
    if list(enum_T(1, 2)) != triples(goldens.load("Ex1.5"), 1, 2):
        ok = False
        detail.append("T_1^2")
    rec16 = goldens.load("Ex1.6")
    if list(enum_T(2, 3)) != triples(rec16, 2, 3) or \
            list(enum_T(1, 3)) != triples(rec16, 1, 3):
        ok = False
        detail.append("T_r^3")
    # recursion vs spectrum duality
    for n in range(2, 6):
        for r in range(1, n):
            Tset = set(enum_T(r, n))
            for t in enum_U(r, n):
                if (t in Tset) != triple_via_eigen(t):
                    ok = False
                    detail.append(f"eigen mismatch {t}")
    # the two explicit triple families, n <= 7, all r
    for n in range(2, 8):
        for r in range(1, n):
            Tset = {(t.I, t.J, t.L) for t in enum_T(r, n)}
            for I in itertools.combinations(range(1, n + 1), r):
                if (I, family_bar(I, n), family_L(r, n)) not in Tset:
                    ok = False
                    detail.append(f"bar family n={n} r={r}")
                if 1 in I and (I, family_bar_star(I, n),
                               family_L_tilde(r, n)) not in Tset:
                    ok = False
                    detail.append(f"bar-star family n={n} r={r}")
    report(3, "Horn self-consistency", ok, time.perf_counter() - t0, 30.0,
           "; ".join(detail[:4]))


# -- 4. oracle cross-check -----------------------------------------------

CROSS_CHECK_CASES = [
    ("sp:n=2", [3, 1]),
    ("sp:n=3", [4, 2, 1]),
    ("su:p=2,q=1", [2, 0]),
    ("su:p=3,q=1", [3, 1, 0]),
    ("so_star:n=3", [3, 2, 1]),
    ("su:p=2,q=2", [3, 1, -1, -3]),
]


# One seeded Lambda each, on groups past the fixed cases.
CROSS_CHECK_SAMPLED = ["su:p=3,q=2", "sp:n=4", "so_star:n=4", "su:p=4,q=2", "su:p=3,q=3"]


def test_criterion_4_cross_check():
    t0 = time.perf_counter()
    rng = random.Random(0xc4)
    cases = CROSS_CHECK_CASES + [
        (spec, _sample_holomorphic(g_of(spec), rng)) for spec in CROSS_CHECK_SAMPLED]
    ok = True
    detail = []
    for spec, lam in cases:
        rep = cross_check(g_of(spec), lam)
        if not rep.ok:
            ok = False
            detail.append(f"{spec}: {rep.disagreements[:3]}")
    report(4, "oracle cross-check", ok, time.perf_counter() - t0, 120.0,
           "; ".join(detail))


# -- 5. Schubert suite ---------------------------------------------------


def test_criterion_5_schubert():
    t0 = time.perf_counter()
    ok = True
    detail = []

    def check(cond, label):
        nonlocal ok
        if not cond:
            ok = False
            detail.append(label)

    # degree-2 power rule up to the vanishing power
    for n in range(2, 7):
        R = SchubertRing((n,))
        s1 = R.basis_class(simple(R.group, 0, 1))
        acc = one(R)
        for k in range(1, n):
            acc = R.cup(acc, s1)
            expect = R.basis_class(WeylElt([from_word(n, list(range(k, 0, -1)))]))
            check(acc == expect, f"power {n},{k}")
        check(R.cup(acc, s1).is_zero(), f"power {n} top")

    # product identities of the descending-cycle classes, r <= 6
    for r in range(3, 7):
        R = SchubertRing((r,))
        hats, checks = special_elements(r)
        for k in range(2, r):
            ck = R.basis_class(WeylElt([checks[k - 1]]))
            sk = R.basis_class(simple(R.group, 0, k))
            sk1 = R.basis_class(simple(R.group, 0, k - 1))
            bump = WeylElt([checks[k] * Perm.simple(r, k - 1) * Perm.simple(r, k)])
            check(R.cup(sk, ck) == R.basis_class(bump), f"bump {r},{k}")
            check(R.cup(sk1, ck) ==
                  R.basis_class(bump) + R.basis_class(WeylElt([checks[k - 2]])),
                  f"shift {r},{k}")
            check(R.cup(sk1 - sk, ck) == R.basis_class(WeylElt([checks[k - 2]])),
                  f"difference {r},{k}")

    # the worked cup-product chain in rank 4
    R4 = SchubertRing((4,))
    cls = lambda word: R4.basis_class(from_words(R4.group, [word]))
    check(R4.cup(cls([2]), cls([1, 2])) == cls([1, 3, 2]), "rank-4 triple a")
    check(R4.cup(cls([2]), cls([1, 3, 2])) == cls([2, 1, 3, 2]), "rank-4 triple b")

    # duality on every standard parabolic, rank <= 4
    for n in (2, 3, 4):
        R = SchubertRing((n,))
        G = R.group
        w0 = G.longest()
        for walls in itertools.product((0, 1), repeat=n - 1):
            vals, cur = [n], n
            for flat in walls:
                cur -= 0 if flat else 1
                vals.append(cur)
            wl = stabilizer_parabolic(G, vals)
            reps = max_coset_reps(G, vals)
            for w in reps:
                for wp in reps:
                    if w.length() + wp.length() >= w0.length() + wl.length():
                        expected = wp == w0 * w * wl
                        check(duality_check(R, w, wp, wl) == expected,
                              f"duality {n} {walls}")

    # cup against the degree-2 rule on every basis class, rank <= 4
    for n in (2, 3, 4):
        R = SchubertRing((n,))
        weights = [[1] * k + [0] * (n - k) for k in range(1, n)]
        weights += [[2, 0] + [0] * (n - 2), [1, -1] + [0] * (n - 2)]
        for p in itertools.permutations(range(1, n + 1)):
            c = R.basis_class(WeylElt([Perm(p)]))
            for mu in weights:
                check(R.cup(theta(R, mu), c) == R.chevalley_mult(c, mu),
                      f"chevalley {n}")
    report(5, "Schubert suite", ok, time.perf_counter() - t0, 30.0,
           "; ".join(detail[:4]))


# -- 6. well-covering tables -----------------------------------------------


def test_criterion_6_well_covering():
    t0 = time.perf_counter()
    ok = True
    detail = []

    def check(cond, label):
        nonlocal ok
        if not cond:
            ok = False
            detail.append(label)

    # the rank-n unitary family: nontrivial pairs indexed by k = 2..n
    for n in (2, 3, 4, 5):
        g = g_of(f"su:p={n},q=1")
        lam1 = OneParamSubgroup([n] + [-1] * (n - 1))
        ctx = context(g, lam1)
        hats, _ = special_elements(n)
        wl = ctx.w_lambda.factors[0]
        expected = sorted(
            ((WeylElt([hats[k - 1].inverse() * wl]),
              WeylElt([hats[n + 1 - k].inverse() * wl]))
             for k in range(2, n + 1)),
            key=lambda t: (t[0].sort_key(), t[1].sort_key()),
        )
        got = [(p.w, p.w_prime) for p in enumerate_m0(g, lam1)]
        check(got == expected, f"unitary family n={n}")

    # the four rank-(2,2) pairs
    g22 = g_of("su:p=2,q=2")
    rec = goldens.load("Pairs7.3.4.2")
    expected = sorted(
        (WeylElt([from_word(2, r["w"][0]), from_word(2, r["w"][1])]).text(),
         WeylElt([from_word(2, r["w_prime"][0]),
                  from_word(2, r["w_prime"][1])]).text())
        for r in rec.payload["pairs"])
    got = sorted((p.w.text(), p.w_prime.text())
                 for p in enumerate_m0(g22, OneParamSubgroup([1, -1, 1, -1])))
    check(got == expected, "four pairs (2,2)")

    # the six table rows for the rank-4 orthogonal-star case
    g8 = g_of("so_star:n=4")
    recs = goldens.load("Tab7.3.3-pairs")
    reps_table = goldens.load("Tab7.3.3-reps")
    lam22 = OneParamSubgroup([1, 1, -1, -1])
    expected = sorted(
        (WeylElt([from_word(4, r["w"][0])]).text(),
         WeylElt([from_word(4, r["w_prime"][0])]).text())
        for r in recs.payload["pairs"])
    got = sorted((p.w.text(), p.w_prime.text()) for p in enumerate_m0(g8, lam22))
    check(got == expected, "six rows")
    # and the coset-representative table backing it
    ctx8 = context(g8, lam22)
    table_perms = {WeylElt([from_word(4, r["w"])]) for r in reps_table.payload["rows"]}
    check(set(ctx8.reps) == table_perms, "rep table")
    rho = RatVec([F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)])
    for r in reps_table.payload["rows"]:
        w = WeylElt([from_word(4, r["w"])])
        check(w.act(lam22.coords) == tuple(r["w_lam"]), "table action")
        num, den = _dot(w.act(lam22.coords), rho)
        check(num == r["rho_pairing"] * den, "table rho")

    # the sign bound on a full scan
    for spec in ("sp:n=2", "su:p=2,q=1", "so_star:n=3"):
        g = g_of(spec)
        for lam in sorted_admissible(enumerate_admissible(g)):
            for pair in scan_well_covering(g, lam):
                check(pair.m <= 0, f"sign bound {spec}")
    report(6, "well-covering tables", ok, time.perf_counter() - t0, 60.0,
           "; ".join(detail[:4]))


# -- 7. geometric properties -------------------------------------------------

GEOMETRY_FAMILIES = [
    "sp:n=2", "sp:n=3", "sp:n=4",
    "su:p=2,q=1", "su:p=3,q=1", "su:p=4,q=1",
    "su:p=2,q=2", "so_star:n=3", "so_star:n=4",
]


def _sample_holomorphic(g, rng):
    for _ in range(400):
        vals = sorted(
            (F(rng.randint(0, 12), rng.choice((1, 2))) for _ in range(g.dim)),
            reverse=True,
        )
        if g.trace_zero:
            shift = sum(vals) / g.dim
            vals = [v - shift for v in vals]
        cand = RatVec(vals)
        if in_hol_chamber(g, cand):
            return cand
    raise AssertionError("sampling failed")


def test_criterion_7_geometry():
    t0 = time.perf_counter()
    rng = random.Random(0x0b17)
    ok = True
    detail = []
    for spec in GEOMETRY_FAMILIES:
        g = g_of(spec)
        for _ in range(20):
            Lambda = _sample_holomorphic(g, rng)
            p = assemble(g, Lambda)
            if not member(p, Lambda):
                ok = False
                detail.append(f"{spec}: orbit parameter outside")
            if not contained_in_shifted_cone(p):
                ok = False
                detail.append(f"{spec}: not inside the shifted cone")
            if not contained_in_hol_closure(p):
                ok = False
                detail.append(f"{spec}: leaves the chamber closure")
            if not poly_equal(p.system, relaxed_rows(g).system(Lambda)):
                ok = False
                detail.append(f"{spec}: relaxed assembly differs")
    # The dominant-pair theorem for every Lambda at once, read over
    # (xi, Lambda) as in criteria 8 and 9.
    for spec in GEOMETRY_FAMILIES + ["su:p=3,q=2"]:
        g = g_of(spec)
        if not poly_equal(joint_cone(g, _assembly_rows(g)[0]), joint_cone(g, relaxed_rows(g))):
            ok = False
            detail.append(f"{spec}: relaxed assembly differs for some Lambda")
    report(7, "geometric properties", ok, time.perf_counter() - t0, 120.0,
           "; ".join(detail[:4]))


# -- 8 and 9. the routes agree for every Lambda ------------------------------
#
# Every route's rows are <a, x> (<=|=) <c, p> with p ending in Lambda, so
# read over (x, p) each route is one cone and no Lambda needs sampling.
# The cones are closed, with Lambda in the closed holomorphic chamber;
# equal closed cones agree on the open chamber too.


def joint_cone(g, rows):
    """The rows of a polytope._LinearRows as the cone <a, x> - <c, p>
    (<=|=) 0 in (x, p).  The last two blocks of (x, p) are a point (xi, or
    mu for the oracle) and Lambda: the point is dominant, and Lambda lies
    in the closed holomorphic chamber."""
    n = g.dim
    dim = rows.nvars + len(rows.rows[0][1])

    def placed(normal, start):
        return [0] * start + list(normal) + [0] * (dim - start - n)

    out = [AffineIneq(RatVec([*a, *(-c for c in cs)]), 0, kind) for a, cs, kind in rows.rows]
    for start in (dim - 2 * n, dim - n):
        out += [AffineIneq(RatVec(placed(r.normal, start)), 0, r.kind) for r in g.chamber.ineqs]
    out += [ineq_ge(placed(beta, dim - n), 0) for beta in g.noncompact_pos]
    return HPolyhedron(dim, out)


def test_criterion_8_closed_forms_every_lambda():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for spec, *_ in CLOSED_FORM_CASES:
        g = g_of(spec)
        if not poly_equal(joint_cone(g, _assembly_rows(g)[0]), joint_cone(g, _closed_form_rows(g))):
            ok = False
            detail.append(spec)
    report(8, "closed forms for every Lambda", ok, time.perf_counter() - t0, 10.0,
           "; ".join(detail))


# The closed-form groups and su(3, 2) cover five of the six assemble-mix
# groups; su(4, 2) and su(3, 3) complete the two-block groups with admissible
# goldens (Thm 7.2.10).  sp:n=5 would add about 7 s of implication LPs.
HORN_EVERY_LAMBDA = [spec for spec, *_ in CLOSED_FORM_CASES] + [
    "su:p=3,q=2", "su:p=4,q=2", "su:p=3,q=3"]


def test_criterion_9_horn_every_lambda():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for spec in HORN_EVERY_LAMBDA:
        g = g_of(spec)
        assembled = joint_cone(g, _assembly_rows(g)[0])
        oracle = _oracle_rows(g)
        # Horn inside assembly: the lifted cone in (m, k, mu, Lambda)
        # implies every assembled row.
        lifted = [AffineIneq(RatVec([0] * oracle.nvars + list(r.normal)), 0, r.kind)
                  for r in assembled.ineqs]
        if not implies_all(joint_cone(g, oracle), lifted):
            ok = False
            detail.append(f"{spec}: an assembled row fails on the Horn cone")
        # Assembly inside Horn: every extreme ray (xi, Lambda) of the
        # assembled cone, and both directions of each lineality vector,
        # passes the oracle's LP at p = (mu, Lambda) = the ray.
        lineality, rays = cone_rays(assembled)
        for ray in [*rays, *lineality, *(-l for l in lineality)]:
            if not lp_feasible(oracle.system(ray)):
                ok = False
                detail.append(f"{spec}: ray {ray!r} fails the oracle")
    report(9, "Horn route for every Lambda", ok, time.perf_counter() - t0, 10.0,
           "; ".join(detail[:4]))
