"""Checked-in ground-truth tables used by the test suite and the benchmark.

Each golden record is one JSON file under goldens/<chapter>/<id>.json with
the shape {"id": ..., "kind": ..., "payload": ...}.  The payload formats:

  horn_triples      {"sets": {"r,n": [{"I": [...], "J": [...], "L": [...]}]}}
  admissible_sets   {"instances": {"<spec>": [[int, ...], ...]}}
  polytope_rows     {"instances": {"<rank key>": [row, ...]}} with each row
                    {"xi": [...], "lam": [...], "op": ">="|"<="|"="}; the
                    right side of a row is <lam, Lambda> at test time; rows
                    with "lam" omitted have right side 0.
  coset_table       {"rows": [...]} (see the 7.3.3 tables)
  pair_table        {"pairs": [{"w": words, "w_prime": words}, ...]}

Inequality templates keep Lambda symbolic exactly so parametric statements
are instantiated at test time; tests never read expected data from the
code under test.

The package keeps two readers, `load` and `admissible_vectors`, because
the benchmark's check of the `adm` verb (perfbench/workloads.py) reads
them.  The other readers (every id, Horn triples, inequality systems at
a given Lambda) only tests call, so they live in `tests/reference.py`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

_KINDS = {"horn_triples", "admissible_sets", "polytope_rows", "coset_table", "pair_table"}


@dataclass(frozen=True)
class GoldenRecord:
    id: str
    kind: str
    payload: dict


def _chapter_of(golden_id: str) -> str:
    m = re.search(r"(\d+)", golden_id)
    if not m:
        raise KeyError(f"golden id {golden_id!r} carries no chapter number")
    return f"{int(m.group(1)):02d}"


def load(golden_id: str) -> GoldenRecord:
    """Load and validate one golden record by id."""
    chapter = _chapter_of(golden_id)
    ref = resources.files(__package__).joinpath("goldens", chapter, f"{golden_id}.json")
    try:
        raw = ref.read_text()
    except FileNotFoundError as exc:
        raise KeyError(f"unknown golden id {golden_id!r}") from exc
    obj = json.loads(raw)
    if obj.get("id") != golden_id:
        raise ValueError(f"golden file for {golden_id!r} carries id {obj.get('id')!r}")
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"golden {golden_id!r} has unknown kind {kind!r}")
    return GoldenRecord(golden_id, kind, obj["payload"])


def admissible_vectors(rec: GoldenRecord, spec: str) -> set[tuple[int, ...]]:
    if rec.kind != "admissible_sets":
        raise ValueError(f"{rec.id} is not an admissible_sets golden")
    return {tuple(v) for v in rec.payload["instances"][spec]}
