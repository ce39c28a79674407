"""Admissible one-parameter subgroups: generic enumeration, closed forms,
golden lists."""

from fractions import Fraction
from itertools import combinations

import pytest

from orbitope import goldens
from orbitope.admissible import _primitive_kernel_vector, enumerate_admissible, sorted_admissible
from orbitope.exactmath import DomainError, RatVec
from orbitope.rootdata import GroupFamily, build
from reference import (
    closed_form_admissible,
    is_admissible,
    is_cocharacter,
    is_dominant_ops,
    kernel_root_span_dim,
)

GOLDEN_BY_SPEC = {
    "su:p=2,q=1": "Thm7.2.1", "su:p=3,q=1": "Thm7.2.1",
    "su:p=4,q=1": "Thm7.2.1", "su:p=5,q=1": "Thm7.2.1",
    "sp:n=1": "Thm7.2.5", "sp:n=2": "Thm7.2.5", "sp:n=3": "Thm7.2.5",
    "sp:n=4": "Thm7.2.5", "sp:n=5": "Thm7.2.5",
    "so_star:n=3": "Thm7.2.7", "so_star:n=4": "Thm7.2.7",
    "so_star:n=5": "Thm7.2.7", "so_star:n=6": "Thm7.2.7",
    "su:p=2,q=2": "Thm7.2.10", "su:p=3,q=2": "Thm7.2.10",
    "su:p=4,q=2": "Thm7.2.10", "su:p=3,q=3": "Thm7.2.10",
    "so:p=4": "Thm7.2.14", "so:p=6": "Thm7.2.14",
    "so:p=3": "Thm7.2.16", "so:p=5": "Thm7.2.16", "so:p=7": "Thm7.2.16",
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_BY_SPEC))
def test_enumeration_equals_closed_form_and_golden(spec):
    g = build(GroupFamily.parse(spec))
    enum = enumerate_admissible(g)
    assert all(is_cocharacter(lam) for lam in enum)
    closed = closed_form_admissible(g)
    assert enum == closed
    golden = goldens.admissible_vectors(goldens.load(GOLDEN_BY_SPEC[spec]), spec)
    assert enum == golden


@pytest.mark.parametrize("unitary", [True, False])
def test_su11_equals_closed_form(unitary):
    # a rank-1 torus (like sp:n=1 above) goes through the subset loop too
    g = build(GroupFamily.parse("su:p=1,q=1"), su_n1_unitary_coords=unitary)
    assert enumerate_admissible(g) == closed_form_admissible(g)


def test_subset_cap_is_domain_error():
    # C(24, 8) = 735471 subsets for su(6, 4)
    g = build(GroupFamily.parse("su:p=6,q=4"))
    with pytest.raises(DomainError, match=r"subset enumeration too large: C\(24,8\)"):
        enumerate_admissible(g)


def test_sp_cardinality():
    for n in range(1, 6):
        g = build(GroupFamily.parse(f"sp:n={n}"))
        assert len(enumerate_admissible(g)) == n * (n - 1) // 2 + 2


def test_su_n1_both_conventions():
    # unitary convention: (n, -1, ..) and (1, .., 1, -n)
    g = build(GroupFamily.parse("su:p=3,q=1"))
    assert enumerate_admissible(g) == {(3, -1, -1), (1, 1, -3)}
    # full coordinates: the two trace-zero counterparts
    g_full = build(GroupFamily.parse("su:p=3,q=1"), su_n1_unitary_coords=False)
    full = enumerate_admissible(g_full)
    assert full == closed_form_admissible(g_full)
    assert full == {(3, -1, -1, -1), (1, 1, -3, 1)}


def test_so_star6_literal():
    g = build(GroupFamily.parse("so_star:n=3"))
    assert enumerate_admissible(g) == {(1, -1, -1), (1, 1, -1)}


def test_so42_literal():
    g = build(GroupFamily.parse("so:p=4"))
    assert enumerate_admissible(g) == {
        (1, 0, 0), (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}


def test_so32_literal():
    g = build(GroupFamily.parse("so:p=3"))
    assert enumerate_admissible(g) == {(1, 0), (1, 1), (1, -1)}


def test_su22_lam11_value():
    g = build(GroupFamily.parse("su:p=2,q=2"))
    assert (1, -1, 1, -1) in enumerate_admissible(g)


def test_indivisible_dominant_kernel_invariants():
    for spec in ("sp:n=4", "su:p=3,q=2", "so_star:n=5", "so:p=6", "su:p=4,q=1"):
        g = build(GroupFamily.parse(spec))
        torus_rank = g.dim - (1 if g.trace_zero else 0)
        for lam in enumerate_admissible(g):
            assert is_cocharacter(lam)
            assert is_dominant_ops(g, lam)
            assert is_admissible(g, lam)
            assert kernel_root_span_dim(g, lam) == torus_rank - 1


# sp up to the benchmark's sp:n=5, su(p, q) with p <= 4 in both su(n, 1)
# conventions, so* and so; su(4, 4) (5632 lines, about 1.9 s) is left out
# for time.
KERNEL_LINE_GROUPS = (
    [(f"sp:n={n}", True) for n in range(1, 6)]
    + [(f"su:p={p},q={q}", unitary) for p in range(1, 5) for q in range(1, min(p, 3) + 1)
       for unitary in ((True, False) if q == 1 else (True,))]
    + [(f"so_star:n={n}", True) for n in range(3, 6)]
    + [(f"so:p={p}", True) for p in range(3, 8)]
)


def test_every_kernel_line_is_admissible():
    # The premises of enumerate_admissible, which keeps a kernel line on
    # membership of the chamber alone: every kernel line the scan builds is
    # admissible (the argument is in its docstring), and on both signs of
    # each line the chamber, which reads the simple compact roots, agrees
    # with dominance over every compact positive root.
    lines = 0
    for spec, unitary in KERNEL_LINE_GROUPS:
        g = build(GroupFamily.parse(spec), su_n1_unitary_coords=unitary)
        trace = [(1,) * g.dim] if g.trace_zero else []
        for subset in combinations(g.noncompact_pos, g.dim - len(trace) - 1):
            vec = _primitive_kernel_vector(list(subset) + trace, g.dim)
            if vec is not None:
                lines += 1
                assert is_admissible(g, vec), (spec, unitary, vec)
                for v in (vec, tuple(-a for a in vec)):
                    dominant = is_dominant_ops(g, v)
                    assert g.chamber.contains(RatVec(v)) == dominant, (spec, unitary, v)
    assert lines == 2467


def test_one_param_subgroup_validation():
    # A cocharacter is a nonempty, indivisible tuple of ints; the validator
    # the tests assert on every scanned lambda rejects anything else.
    for bad in ((2, -2), (2, 4), (Fraction(1, 2), 1), (1, Fraction(1, 2)), (), [3, -2]):
        assert not is_cocharacter(bad), bad
    assert is_cocharacter((3, -2))


def test_sorted_admissible_deterministic():
    g = build(GroupFamily.parse("sp:n=3"))
    lams = sorted_admissible(enumerate_admissible(g))
    assert lams == sorted(lams)
