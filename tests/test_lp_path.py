"""The simplex pivot path, pinned: status, value and witness of `lp_max`
and `lp_witness` on seeded random systems, and the member flag and cone
witness of `horn_oracle_member` on seeded (group, Lambda, mu) triples, must
match tests/data/lp_path.json exactly.  Bland's rule makes every witness a
function of the pivot path and of the row order, so any change to the
tableau arithmetic or to the order in which a system is built that alters
a pivot shows up here.

The `redundancy` section pins the implication tests: the rows
`remove_redundant` keeps on each of those systems, `poly_equal` on
consecutive systems of equal dimension, and the `Provenance.kept` flags of
`assemble` at seeded Lambdas.

Regenerate the file (only when the pivot path is meant to change) with

    PYTHONPATH=src python tests/test_lp_path.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from orbitope.exactmath import (
    EQ, LE, AffineIneq, HPolyhedron, RatVec, lp_witness, poly_equal, rat_str,
    remove_redundant,
)
from orbitope.polytope import assemble, horn_oracle_member
from orbitope.rootdata import GroupFamily, build, in_hol_chamber
from reference import lp_max

DATA = Path(__file__).parent / "data" / "lp_path.json"
SEED = 20110117
COUNT = 300
ORACLE_GROUPS = ("sp:n=4", "su:p=6,q=1", "su:p=2,q=2", "so_star:n=4", "su:p=3,q=2")
ORACLE_PER_GROUP = 20
KEPT_PER_GROUP = 20


def _systems(seed: int = SEED, count: int = COUNT):
    """Random systems with dim <= 4, <= 8 rows and some equalities, each
    with an objective: [(dim, [[coeffs..., bound, eq], ...], objective)]."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rnd.randint(1, 4)
        rows = []
        for _ in range(rnd.randint(1, 8)):
            coeffs = [rnd.randint(-3, 3) for _ in range(dim)]
            rows.append([*coeffs, rnd.randint(-3, 6), rnd.random() < 0.15])
        out.append((dim, rows, [rnd.randint(-3, 3) for _ in range(dim)]))
    return out


def _system(dim, rows) -> HPolyhedron:
    return HPolyhedron(
        dim, [AffineIneq(RatVec(r[:dim]), r[dim], EQ if r[dim + 1] else LE) for r in rows]
    )


def _vec(v):
    return None if v is None else [rat_str(c) for c in v]


def _record(dim, rows, objective) -> dict:
    s = _system(dim, rows)
    status, value, witness = lp_max(s, objective)
    return {
        "dim": dim,
        "rows": rows,
        "objective": objective,
        "max": [status, None if value is None else rat_str(value), _vec(witness)],
        "witness": _vec(lp_witness(s)),
    }


def _random_lambda(rnd, g):
    """A random decreasing Lambda with entries in [0, 12] in half steps,
    shifted to trace zero where g is trace-zero; None unless strictly
    holomorphic."""
    vals = sorted((Fraction(rnd.randint(0, 12), rnd.choice((1, 2)))
                   for _ in range(g.dim)), reverse=True)
    if g.trace_zero:
        vals = [v - sum(vals) / g.dim for v in vals]
    return RatVec(vals) if in_hol_chamber(g, RatVec(vals)) else None


def _oracle_triples(seed: int = SEED):
    """Per group, ORACLE_PER_GROUP dominant points mu near a strictly
    holomorphic Lambda (a fresh Lambda every fourth point).  Half the points
    are Lambda plus a small half-integer combination of the noncompact
    positive roots, half are Lambda plus a half-integer step in [-2, 2] per
    coordinate, trace-preserving where the group is trace-zero.
    [(spec, Lambda text, mu text)]"""
    rnd = random.Random(seed)
    steps = [Fraction(k, 2) for k in range(-4, 5)]
    out = []
    for spec in ORACLE_GROUPS:
        g = build(GroupFamily.parse(spec))
        Lambda = None
        while sum(1 for t in out if t[0] == spec) < ORACLE_PER_GROUP:
            if Lambda is None or rnd.random() < 0.25:
                drawn = _random_lambda(rnd, g)
                if drawn is None:
                    continue
                Lambda = drawn
            if rnd.random() < 0.5:
                mu = Lambda
                for beta in g.noncompact_pos:
                    mu = mu + beta.scale(Fraction(rnd.choice((0, 0, 0, 1, 2)), 2))
            else:
                delta = [rnd.choice(steps) for _ in range(g.dim)]
                if g.trace_zero:
                    delta[-1] = -sum(delta[:-1])
                mu = RatVec([a + d for a, d in zip(Lambda, delta)])
            if g.chamber.contains(mu):
                out.append((spec, _vec(Lambda), _vec(mu)))
    return out


def _oracle_record(spec, Lambda, mu) -> dict:
    g = build(GroupFamily.parse(spec))
    ok, gamma = horn_oracle_member(g, [Fraction(x) for x in Lambda],
                                   [Fraction(x) for x in mu], witness=True)
    return {"group": spec, "Lambda": Lambda, "mu": mu, "member": ok, "witness": _vec(gamma)}


def _rows(sys: HPolyhedron):
    """Each row as its integer row, the form it is printed in."""
    return [[*obj["a"], obj["b"], obj["eq"]] for obj in (r.to_json_obj() for r in sys.ineqs)]


def _redundancy_record(cases) -> dict:
    """`remove_redundant` on every system of the `lp` section, and
    `poly_equal` on each system and the next one of its dimension."""
    systems = [_system(case["dim"], case["rows"]) for case in cases]
    last, pairs = {}, []
    for i, s in enumerate(systems):
        if s.dim in last:
            j = last[s.dim]
            pairs.append([j, i, poly_equal(systems[j], s)])
        last[s.dim] = i
    return {"remove_redundant": [_rows(remove_redundant(s)) for s in systems],
            "poly_equal": pairs}


def _kept_lambdas(seed: int = SEED):
    """KEPT_PER_GROUP random Lambdas per group: [(spec, Lambda text)]."""
    rnd = random.Random(seed)
    out = []
    for spec in ORACLE_GROUPS:
        g = build(GroupFamily.parse(spec))
        while sum(1 for t in out if t[0] == spec) < KEPT_PER_GROUP:
            Lambda = _random_lambda(rnd, g)
            if Lambda is not None:
                out.append((spec, _vec(Lambda)))
    return out


def _kept_record(spec, Lambda) -> dict:
    pol = assemble(build(GroupFamily.parse(spec)), [Fraction(x) for x in Lambda])
    return {"group": spec, "Lambda": Lambda,
            "kept": "".join("1" if p.kept else "0" for p in pol.provenance)}


def test_pivot_path_is_pinned():
    cases = json.loads(DATA.read_text())["lp"]
    assert len(cases) == COUNT
    statuses = {case["max"][0] for case in cases}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    for case in cases:
        assert _record(case["dim"], case["rows"], case["objective"]) == case


def test_oracle_path_is_pinned():
    cases = json.loads(DATA.read_text())["oracle"]
    assert len(cases) == ORACLE_PER_GROUP * len(ORACLE_GROUPS)
    for spec in ORACLE_GROUPS:
        assert {case["member"] for case in cases if case["group"] == spec} == {True, False}
    for case in cases:
        assert _oracle_record(case["group"], case["Lambda"], case["mu"]) == case


def test_redundancy_is_pinned():
    data = json.loads(DATA.read_text())
    pinned = data["redundancy"]
    got = _redundancy_record(data["lp"])
    assert got["remove_redundant"] == pinned["remove_redundant"]
    assert got["poly_equal"] == pinned["poly_equal"]
    assert {flag for _, _, flag in pinned["poly_equal"]} == {True, False}
    assert len(pinned["kept"]) == KEPT_PER_GROUP * len(ORACLE_GROUPS)
    for case in pinned["kept"]:
        assert _kept_record(case["group"], case["Lambda"]) == case


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    records = {
        "lp": [_record(*sysobj) for sysobj in _systems()],
        "oracle": [_oracle_record(*triple) for triple in _oracle_triples()],
    }
    records["redundancy"] = {
        **_redundancy_record(records["lp"]),
        "kept": [_kept_record(*pair) for pair in _kept_lambdas()],
    }
    DATA.write_text(json.dumps(records, indent=0) + "\n")
    print(f"wrote {len(records['lp'])} systems, {len(records['oracle'])} "
          f"oracle points and {len(records['redundancy']['kept'])} assembled "
          f"Lambdas to {DATA}")
