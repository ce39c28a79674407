"""Loader contracts for the checked-in ground-truth tables."""

import pytest

from orbitope import goldens
from orbitope.exactmath import RatVec
from orbitope.horn import HornTriple
from reference import all_ids, polytope_system, triples

EXPECTED_IDS = {
    "Ex1.5", "Ex1.6",
    "Thm7.2.1", "Thm7.2.5", "Thm7.2.7", "Thm7.2.10", "Thm7.2.14", "Thm7.2.16",
    "Thm7.3.1", "Thm7.3.4", "Thm7.3.6", "Thm7.3.8", "Thm7.3.11",
    "Tab7.3.3-reps", "Tab7.3.3-pairs", "Pairs7.3.4.2",
}


def test_all_ids_present():
    assert set(all_ids()) == EXPECTED_IDS


def test_unknown_id():
    with pytest.raises(KeyError):
        goldens.load("Thm99.1")


def test_payloads_parse_into_module_types():
    rec = goldens.load("Ex1.5")
    ts = triples(rec, 1, 2)
    assert all(isinstance(t, HornTriple) for t in ts)
    rec = goldens.load("Thm7.2.5")
    vecs = goldens.admissible_vectors(rec, "sp:n=2")
    assert all(isinstance(v, tuple) for v in vecs)
    rec = goldens.load("Thm7.3.6")
    sys = polytope_system(rec, "n=3", RatVec([3, 2, 1]))
    assert sys.dim == 3 and len(sys.ineqs) >= 5


def test_wrong_kind_accessors():
    rec = goldens.load("Thm7.3.6")
    with pytest.raises(ValueError):
        triples(rec, 1, 2)
    with pytest.raises(ValueError):
        goldens.admissible_vectors(rec, "sp:n=2")
    rec2 = goldens.load("Ex1.5")
    with pytest.raises(ValueError):
        polytope_system(rec2, "n=3", RatVec([1, 2, 3]))


def test_every_id_referenced_by_acceptance_suite():
    # coverage contract: the acceptance module must cite every golden id
    import pathlib

    src = (pathlib.Path(__file__).parent / "test_acceptance.py").read_text()
    missing = [gid for gid in sorted(EXPECTED_IDS) if gid not in src]
    assert not missing, f"golden ids unused by the acceptance suite: {missing}"
