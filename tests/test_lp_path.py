"""The simplex pivot path, pinned: status, value and witness of `lp_max`
and `lp_witness` on seeded random systems must match tests/data/lp_path.json
exactly.  Bland's rule makes the witness a function of the pivot path, so
any change to the tableau arithmetic that alters a pivot shows up here.

Regenerate the file (only when the pivot path is meant to change) with

    PYTHONPATH=src python tests/test_lp_path.py
"""

import json
import random
from pathlib import Path

from orbitope.exactmath import EQ, LE, AffineIneq, HPolyhedron, RatVec, lp_max, lp_witness, rat_str

DATA = Path(__file__).parent / "data" / "lp_path.json"
SEED = 20110117
COUNT = 300


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


def test_pivot_path_is_pinned():
    cases = json.loads(DATA.read_text())
    assert len(cases) == COUNT
    statuses = {case["max"][0] for case in cases}
    assert statuses == {"optimal", "infeasible", "unbounded"}
    for case in cases:
        assert _record(case["dim"], case["rows"], case["objective"]) == case


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    records = [_record(*sysobj) for sysobj in _systems()]
    DATA.write_text(json.dumps(records, indent=0) + "\n")
    print(f"wrote {len(records)} systems to {DATA}")
