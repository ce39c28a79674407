"""Family root data: counts, strong orthogonality, chambers, cones.

`TestPinned` compares `build` field by field with tests/data/rootdata.json,
one record per (spec, su(n, 1) convention).  Regenerate the file (only when
the root data is meant to change) with

    PYTHONPATH=src python tests/test_rootdata.py
"""

import json
from dataclasses import replace
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

from orbitope.admissible import enumerate_admissible
from orbitope.exactmath import DomainError, HPolyhedron, RatVec, ineq_eq, ineq_ge, poly_equal, rat_str
from orbitope.rootdata import (
    DIM_CAP,
    GroupFamily,
    build,
    dual_weight,
    in_hol_chamber,
)
from reference import schmid_cone


ROOTDATA = Path(__file__).parent / "data" / "rootdata.json"
PINNED_SPECS = (
    [f"sp:n={n}" for n in range(1, 7)]
    + [f"su:p={p},q={q}" for p in range(1, 6) for q in range(1, p + 1)]
    + [f"so_star:n={n}" for n in range(3, 8)]
    + [f"so:p={p}" for p in range(3, 10)]
)
# (spec, su_n1_unitary_coords): both conventions where they differ.
PINNED_CASES = [(spec, unitary) for spec in PINNED_SPECS
                for unitary in ((True, False) if spec.endswith(",q=1") else (True,))]


def g_of(spec, **kw):
    return build(GroupFamily.parse(spec), **kw)


def _neg(v):
    return tuple(-x for x in v)


def _record(spec, unitary) -> dict:
    g = g_of(spec, su_n1_unitary_coords=unitary)

    def vecs(vs):
        return [[rat_str(x) for x in v] for v in vs]

    return {
        "spec": spec,
        "su_n1_unitary_coords": unitary,
        "dim": g.dim,
        "compact_pos": vecs(g.compact_pos),
        "noncompact_pos": vecs(g.noncompact_pos),
        "schmid": vecs(g.schmid),
        "rho": vecs([g.rho])[0],
        "weights_p_minus": vecs(g.weights_p_minus),
        "chamber": g.chamber.to_json_obj(),
        "weyl_degrees": list(g.weyl.degrees),
        "trace_zero": g.trace_zero,
        "unitary_coords": g.unitary_coords,
        "schubert_carrier": g.schubert_carrier,
    }


class TestPinned:
    @pytest.mark.parametrize("index", range(len(PINNED_CASES)),
                             ids=[f"{s}-{u}" for s, u in PINNED_CASES])
    def test_build_matches_file(self, index):
        pinned = json.loads(ROOTDATA.read_text())
        assert len(pinned) == len(PINNED_CASES) == 38
        assert _record(*PINNED_CASES[index]) == pinned[index]


class TestIntegerTypes:
    @pytest.mark.parametrize("index", range(len(PINNED_CASES)),
                             ids=[f"{s}-{u}" for s, u in PINNED_CASES])
    def test_lie_data_are_ints(self, index):
        # Roots, the Schmid family, the module weights and the scanned
        # cocharacters are tuples of ints; rho alone is a RatVec.
        spec, unitary = PINNED_CASES[index]
        g = g_of(spec, su_n1_unitary_coords=unitary)
        for name in ("compact_pos", "noncompact_pos", "schmid", "weights_p_minus"):
            for v in getattr(g, name):
                assert type(v) is tuple and all(type(x) is int for x in v), (name, v)
        assert isinstance(g.rho, RatVec)
        # The scan builds every cocharacter one way, so the scans of more
        # than 10^4 subsets (sp:n=6, so_star:n=7, su(5, 4), su(5, 5)) add
        # seconds and nothing new.
        if comb(len(g.noncompact_pos), g.dim - g.trace_zero - 1) > 10**4:
            return
        for lam in enumerate_admissible(g):
            assert type(lam) is tuple and all(type(c) is int for c in lam)


class TestReplace:
    def test_noncompact_replacement_updates_weights(self):
        g = g_of("su:p=3,q=2")
        ray = replace(g, noncompact_pos=g.noncompact_pos[:2])
        assert ray.weights_p_minus == tuple(_neg(b) for b in g.noncompact_pos[:2])

    def test_compact_replacement_updates_rho(self):
        for spec in ("sp:n=3", "su:p=3,q=2", "so:p=5"):
            g = g_of(spec)
            assert replace(g, compact_pos=()).rho == RatVec([0] * g.dim)
            one = replace(g, compact_pos=g.compact_pos[:1])
            assert one.rho == RatVec(F(a, 2) for a in g.compact_pos[0])


class TestFamilyParsing:
    def test_round_trip(self):
        for spec in ("sp:n=2", "su:p=3,q=2", "so_star:n=4", "so:p=5"):
            assert GroupFamily.parse(spec).spec_string() == spec

    def test_su_alias_n(self):
        assert GroupFamily.parse("su:n=2,q=1") == GroupFamily.parse("su:p=2,q=1")

    def test_invalid(self):
        for bad in ("sp:n=0", "su:p=1,q=2", "so_star:n=2", "so:p=2", "xx:n=1", "sp",
                    # unknown, repeated or aliased-twice keys
                    "sp:n=2,foo=3", "su:p=3,q=2,n=7", "su:n=3,p=3,q=2", "sp:n=2,n=2",
                    "su:p=3,q=2,q=1", "so:p=5,q=2", "so_star:n=4,p=1", "su:p=3"):
            with pytest.raises(ValueError):
                GroupFamily.parse(bad)
        # Direct construction: a wrong parameter count or a value below its
        # least, with the family's message.
        for tag, params, message in (
            ("sp", (), "sp needs n >= 1"), ("sp", (2, 1), "sp needs n >= 1"),
            ("sp", (0,), "sp needs n >= 1"), ("su", (3,), "su needs p >= q >= 1"),
            ("su", (2, 0), "su needs p >= q >= 1"), ("su", (1, 2), "su needs p >= q >= 1"),
            ("so_star", (2,), "so_star needs n >= 3"), ("so_star", (4, 1), "so_star needs n >= 3"),
            ("so", (2,), "so needs p >= 3"), ("xx", (1,), "unknown family tag 'xx'"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                GroupFamily(tag, params)


class TestGroupHash:
    def test_equal_builds_hash_equal(self):
        for spec in ("sp:n=3", "su:p=3,q=2", "su:p=2,q=1", "so_star:n=4", "so:p=5"):
            a, b = g_of(spec), g_of(spec)
            assert a is not b and a == b and hash(a) == hash(b)


class TestDimCap:
    # (spec, su_n1_unitary_coords) of torus dimension DIM_CAP = 32 in each
    # family, and the next one up.
    AT_CAP = [("sp:n=32", True), ("su:p=32,q=1", True), ("su:p=31,q=1", False),
              ("su:p=16,q=16", True), ("so_star:n=32", True), ("so:p=63", True)]
    PAST_CAP = [("sp:n=33", True), ("su:p=33,q=1", True), ("su:p=32,q=1", False),
                ("su:p=17,q=16", True), ("so_star:n=33", True), ("so:p=64", True)]

    @pytest.mark.parametrize("spec, unitary", AT_CAP)
    def test_at_cap_builds(self, spec, unitary):
        assert g_of(spec, su_n1_unitary_coords=unitary).dim == DIM_CAP

    @pytest.mark.parametrize("spec, unitary", PAST_CAP)
    def test_past_cap_raises(self, spec, unitary):
        with pytest.raises(DomainError, match="torus dimension 33 > 32"):
            g_of(spec, su_n1_unitary_coords=unitary)


class TestRootCounts:
    def test_noncompact_counts(self):
        assert len(g_of("sp:n=3").noncompact_pos) == 6          # n(n+1)/2
        assert len(g_of("su:p=3,q=2").noncompact_pos) == 6      # pq
        assert len(g_of("so_star:n=5").noncompact_pos) == 10    # n(n-1)/2
        assert len(g_of("so:p=6").noncompact_pos) == 6          # 2m
        assert len(g_of("so:p=7").noncompact_pos) == 7          # 2m+1

    def test_sp4_roots(self):
        g = g_of("sp:n=2")
        assert set(g.noncompact_pos) == {(2, 0), (1, 1), (0, 2)}

    def test_weights_p_minus(self):
        for spec in ("sp:n=2", "su:p=2,q=2", "so_star:n=3", "so:p=5"):
            g = g_of(spec)
            assert g.weights_p_minus == tuple(_neg(b) for b in g.noncompact_pos)

    def test_rho_is_half_sum(self):
        for spec in ("sp:n=4", "su:p=3,q=2", "so_star:n=4", "so:p=5"):
            g = g_of(spec)
            total = [0] * g.dim
            for a in g.compact_pos:
                total = [t + x for t, x in zip(total, a)]
            assert g.rho == RatVec(F(t, 2) for t in total)
        assert g_of("sp:n=4").rho == RatVec([F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)])


class TestSchmid:
    def test_families(self):
        assert g_of("sp:n=3").schmid == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert g_of("so_star:n=3").schmid == ((1, 1, 0),)
        assert g_of("so_star:n=5").schmid == ((1, 1, 0, 0, 0), (0, 0, 1, 1, 0))
        g = g_of("su:p=3,q=2")
        assert g.schmid == ((1, 0, 0, 0, -1), (0, 1, 0, -1, 0))
        assert g_of("so:p=5").schmid == ((1, 0, 1), (-1, 0, 1))

    def test_su_maximal_root_first(self):
        g = g_of("su:p=4,q=2")
        assert g.schmid[0] == (1, 0, 0, 0, 0, -1)

    def test_strong_orthogonality(self):
        for spec in ("sp:n=4", "su:p=3,q=3", "so_star:n=6", "so:p=6", "so:p=7"):
            g = g_of(spec)
            roots = set(g.compact_pos) | {_neg(a) for a in g.compact_pos}
            roots |= set(g.noncompact_pos) | {_neg(b) for b in g.noncompact_pos}
            for i, gi in enumerate(g.schmid):
                for j, gj in enumerate(g.schmid):
                    if i != j:
                        assert tuple(a + b for a, b in zip(gi, gj)) not in roots
                        assert tuple(a - b for a, b in zip(gi, gj)) not in roots

    def test_nonnegative_pairings(self):
        # (b, b') >= 0 for noncompact positives of the unitary-carrier families
        for spec in ("sp:n=3", "su:p=3,q=2", "so_star:n=4", "su:p=3,q=1"):
            g = g_of(spec)
            for b in g.noncompact_pos:
                for b2 in g.noncompact_pos:
                    assert sum(x * y for x, y in zip(b, b2)) >= 0, (spec, b, b2)


class TestChambers:
    def test_hol_examples(self):
        g = g_of("sp:n=2")
        assert in_hol_chamber(g, RatVec([3, 1]))
        assert not in_hol_chamber(g, RatVec([3, 0]))   # boundary: pairs 0 with 2e2
        assert not in_hol_chamber(g, RatVec([1, 3]))   # not dominant

    def test_su22_chamber_chain(self):
        g = g_of("su:p=2,q=2")
        assert in_hol_chamber(g, RatVec([3, 1, -1, -3]))
        assert not in_hol_chamber(g, RatVec([3, 1, 1, -5]))   # xi2 = xi3
        assert not in_hol_chamber(g, RatVec([3, 1, -1, -2]))  # trace != 0

    def test_su_n1_unitary_convention(self):
        g = g_of("su:p=2,q=1")
        assert g.unitary_coords and g.dim == 2
        assert in_hol_chamber(g, RatVec([2, 0]))
        assert not in_hol_chamber(g, RatVec([0, -2]))

    def test_su_n1_full_coordinates_flag(self):
        g = g_of("su:p=2,q=1", su_n1_unitary_coords=False)
        assert g.dim == 3 and g.trace_zero and not g.unitary_coords
        assert in_hol_chamber(g, RatVec([2, 1, -3]))

    def test_so_chamber_types(self):
        geven = g_of("so:p=6")  # D3: x1>=x2>=x3, x2+x3>=0
        assert geven.chamber.contains(RatVec([2, 1, -1, 7]))
        assert not geven.chamber.contains(RatVec([2, 1, -2, 0]))
        godd = g_of("so:p=5")   # B2: x1>=x2>=0
        assert godd.chamber.contains(RatVec([2, 0, -5]))
        assert not godd.chamber.contains(RatVec([2, -1, 0]))


class TestSchmidCone:
    def test_sp_cone_is_positive_dominant(self):
        for n in (2, 3):
            g = g_of(f"sp:n={n}")
            rows = [ineq_ge([1 if j == i else (-1 if j == i + 1 else 0)
                             for j in range(n)], 0) for i in range(n - 1)]
            rows.append(ineq_ge([0] * (n - 1) + [1], 0))
            assert poly_equal(schmid_cone(g), HPolyhedron(n, rows))

    def test_su_n1_single_ray(self):
        g = g_of("su:p=3,q=1")
        cone = schmid_cone(g)
        beta1 = g.schmid[0]
        assert cone.contains(RatVec(beta1)) and cone.contains(RatVec(7 * x for x in beta1))
        assert not cone.contains(RatVec(_neg(beta1)))
        assert not cone.contains(RatVec([1, 0, 0]))

    def test_so_star6_ray(self):
        g = g_of("so_star:n=3")
        expect = HPolyhedron(3, [ineq_eq([1, -1, 0], 0), ineq_eq([0, 0, 1], 0),
                                 ineq_ge([1, 0, 0], 0)])
        assert poly_equal(schmid_cone(g), expect)

    def test_degenerate_origin(self):
        # no strongly orthogonal family -> the zero cone
        stripped = replace(g_of("sp:n=2"), schmid=())
        cone = schmid_cone(stripped)
        assert cone.contains(RatVec([0, 0])) and not cone.contains(RatVec([1, 0]))


class TestDualWeight:
    def test_blockwise_reverse_negate(self):
        g = g_of("su:p=2,q=2")
        assert dual_weight(g, RatVec([3, 1, -1, -3])) == (-1, -3, 3, 1)
        assert dual_weight(g, [F(7, 2), 1, F(-3, 2), -3]) == (-1, F(-7, 2), 3, F(3, 2))
        g2 = g_of("sp:n=3")
        assert dual_weight(g2, (4, 2, 1)) == (-1, -2, -4)


if __name__ == "__main__":
    records = [_record(spec, unitary) for spec, unitary in PINNED_CASES]
    ROOTDATA.write_text(json.dumps(records, indent=0) + "\n")
    print(f"wrote {len(records)} groups to {ROOTDATA}")
