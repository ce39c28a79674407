"""Root data of the classical Hermitian families.

Four families are supported, identified by tag:

  sp       Sp(2n, R),   maximal compact U(n),           n >= 1
  su       SU(p, q),    maximal compact S(U(p) x U(q)), p >= q >= 1
  so_star  SO*(2n),     maximal compact U(n),           n >= 3
  so       SO(p, 2),    maximal compact SO(p) x SO(2),  p >= 3

All coordinates are written in the standard torus basis e_1*, .., e_d*.
Pairings use the plain dot product in these coordinates; for the families
with orthonormal torus coordinates this is the invariant pairing up to one
global positive scale, which no membership test can see.  SU(p, q) works in
p+q coordinates carrying the trace-zero equality inside every polyhedron.
SU(n, 1) is instead exposed by default in the n-coordinate unitary-group
convention (noncompact positive roots b_k = e_k* + sum_j e_j*), which every
closed-form polytope description downstream uses; pass
`su_n1_unitary_coords=False` to get the plain p+q = n+1 picture.

SO(p, 2) carries no Schubert/coroot data: its Weyl group is not a product
of symmetric groups, and no polytope pipeline is defined for it here.  Its
permutation descriptor is only a proxy, which `schubert_carrier=False`
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import (
    AffineIneq,
    DimensionError,
    HPolyhedron,
    RatVec,
    cone_hull,
    ineq_eq,
    ineq_ge,
)
from .weyl import WeylDescriptor

SP = "sp"
SU = "su"
SO_STAR = "so_star"
SO = "so"


# Parameter keys of each family, in GroupFamily.params order.
_PARAM_KEYS = {SP: ("n",), SU: ("p", "q"), SO_STAR: ("n",), SO: ("p",)}


class UnsupportedFamilyError(ValueError):
    """Raised when an operation has no meaning for the given family."""


@dataclass(frozen=True)
class GroupFamily:
    """One classical Hermitian family instance."""

    tag: str
    params: tuple[int, ...]

    def __post_init__(self):
        tag, params = self.tag, self.params
        if tag == SP:
            if len(params) != 1 or params[0] < 1:
                raise ValueError("sp needs n >= 1")
        elif tag == SU:
            if len(params) != 2 or not (params[0] >= params[1] >= 1):
                raise ValueError("su needs p >= q >= 1")
        elif tag == SO_STAR:
            if len(params) != 1 or params[0] < 3:
                raise ValueError("so_star needs n >= 3")
        elif tag == SO:
            if len(params) != 1 or params[0] < 3:
                raise ValueError("so needs p >= 3")
        else:
            raise ValueError(f"unknown family tag {tag!r}")

    @staticmethod
    def parse(text: str) -> "GroupFamily":
        """Parse CLI strings like 'sp:n=2', 'su:p=2,q=2', 'so_star:n=3',
        'so:p=5'.  For su the key n is accepted as an alias of p.  Unknown
        or repeated keys are rejected."""
        tag, _, argstr = text.partition(":")
        keys = _PARAM_KEYS.get(tag)
        try:
            if keys is None:
                raise ValueError(f"unknown family tag {tag!r}")
            kv = {}
            for part in argstr.split(",") if argstr else ():
                key, _, val = part.partition("=")
                key = key.strip()
                if key in kv:
                    raise ValueError(f"key {key!r} given twice")
                kv[key] = int(val)
            if tag == SU and "n" in kv:
                if "p" in kv:
                    raise ValueError("su takes p or its alias n, not both")
                kv["p"] = kv.pop("n")
            for key in kv:
                if key not in keys:
                    raise ValueError(f"{tag} takes no key {key!r}")
            for key in keys:
                if key not in kv:
                    raise ValueError(f"{tag} needs key {key!r}")
            return GroupFamily(tag, tuple(kv[key] for key in keys))
        except ValueError as exc:
            raise ValueError(f"cannot parse group spec {text!r}: {exc}") from exc

    def spec_string(self) -> str:
        if self.tag == SP:
            return f"sp:n={self.params[0]}"
        if self.tag == SU:
            return f"su:p={self.params[0]},q={self.params[1]}"
        if self.tag == SO_STAR:
            return f"so_star:n={self.params[0]}"
        return f"so:p={self.params[0]}"


@dataclass(frozen=True)
class GroupData:
    """Exact root data of one family instance.

    weights_p_minus is always the elementwise negative of noncompact_pos,
    and rho the half-sum of the compact positive roots.  chamber carries
    the trace-zero equality for su(p, q) with q >= 2.  schubert_carrier is
    False exactly for so(p, 2).
    """

    family: GroupFamily
    dim: int
    compact_pos: tuple[RatVec, ...]
    noncompact_pos: tuple[RatVec, ...]
    rho: RatVec
    schmid: tuple[RatVec, ...]
    chamber: HPolyhedron
    weyl: WeylDescriptor
    weights_p_minus: tuple[RatVec, ...]
    trace_zero: bool
    unitary_coords: bool  # SU(n,1) exposed in the n-coordinate convention
    schubert_carrier: bool

    def __hash__(self):
        # build's inputs, not every root and chamber row; __eq__ still compares
        # every field, so a group made with dataclasses.replace gets its own memos.
        return hash((self.family, self.unitary_coords))

    def label(self) -> str:
        return self.family.spec_string()


def _unit(dim: int, *idx_sign) -> RatVec:
    """Sum of +-e_i given (index, sign) pairs, 0-indexed."""
    v = [Fraction(0)] * dim
    for i, s in idx_sign:
        v[i] += s
    return RatVec(v)


def _dominance_rows(simple_roots) -> list[AffineIneq]:
    return [ineq_ge(list(alpha), 0) for alpha in simple_roots]


def build(family: GroupFamily, su_n1_unitary_coords: bool = True) -> GroupData:
    """Instantiate the root data of one family."""
    tag = family.tag
    if tag == SP:
        n = family.params[0]
        dim = n
        compact = [_unit(dim, (i, 1), (j, -1)) for i in range(n) for j in range(n) if i < j]
        noncompact = [
            _unit(dim, (i, 1), (j, 1)) for i in range(n) for j in range(i, n)
        ]
        schmid = [_unit(dim, (i, 2)) for i in range(n)]
        simple = [_unit(dim, (i, 1), (i + 1, -1)) for i in range(n - 1)]
        chamber = HPolyhedron(dim, _dominance_rows(simple)) if n > 1 else HPolyhedron.whole_space(1)
        weyl = WeylDescriptor((n,))
        return _finish(family, dim, compact, noncompact, schmid, chamber, weyl,
                       trace_zero=False, unitary_coords=False, schubert_carrier=True)

    if tag == SU:
        p, q = family.params
        if q == 1 and su_n1_unitary_coords:
            n = p
            dim = n
            compact = [_unit(dim, (i, 1), (j, -1)) for i in range(n) for j in range(n) if i < j]
            # b_k = e_k + sum_j e_j in the unitary-group convention.
            noncompact = [
                RatVec([1 + (1 if j == k else 0) for j in range(n)]) for k in range(n)
            ]
            schmid = [noncompact[0]]
            simple = [_unit(dim, (i, 1), (i + 1, -1)) for i in range(n - 1)]
            chamber = HPolyhedron(dim, _dominance_rows(simple)) if n > 1 else HPolyhedron.whole_space(1)
            weyl = WeylDescriptor((n,))
            return _finish(family, dim, compact, noncompact, schmid, chamber, weyl,
                           trace_zero=False, unitary_coords=True, schubert_carrier=True)
        dim = p + q
        compact = [_unit(dim, (i, 1), (j, -1)) for i in range(p) for j in range(p) if i < j]
        compact += [
            _unit(dim, (p + i, 1), (p + j, -1)) for i in range(q) for j in range(q) if i < j
        ]
        noncompact = [
            _unit(dim, (i, 1), (p + j, -1)) for i in range(p) for j in range(q)
        ]
        # Strongly orthogonal family (b_{1,p+q}, b_{2,p+q-1}, ..., b_{q,p+1}).
        schmid = [_unit(dim, (i, 1), (p + q - 1 - i, -1)) for i in range(q)]
        simple = [_unit(dim, (i, 1), (i + 1, -1)) for i in range(p - 1)]
        simple += [_unit(dim, (p + i, 1), (p + i + 1, -1)) for i in range(q - 1)]
        rows = _dominance_rows(simple)
        rows.append(ineq_eq([1] * dim, 0))
        chamber = HPolyhedron(dim, rows)
        weyl = WeylDescriptor((p, q))
        return _finish(family, dim, compact, noncompact, schmid, chamber, weyl,
                       trace_zero=True, unitary_coords=False, schubert_carrier=True)

    if tag == SO_STAR:
        n = family.params[0]
        dim = n
        compact = [_unit(dim, (i, 1), (j, -1)) for i in range(n) for j in range(n) if i < j]
        noncompact = [
            _unit(dim, (i, 1), (j, 1)) for i in range(n) for j in range(n) if i < j
        ]
        schmid = [_unit(dim, (2 * j, 1), (2 * j + 1, 1)) for j in range(n // 2)]
        simple = [_unit(dim, (i, 1), (i + 1, -1)) for i in range(n - 1)]
        chamber = HPolyhedron(dim, _dominance_rows(simple))
        weyl = WeylDescriptor((n,))
        return _finish(family, dim, compact, noncompact, schmid, chamber, weyl,
                       trace_zero=False, unitary_coords=False, schubert_carrier=True)

    # SO(p, 2): p = 2m even (type D compact factor) or p = 2m+1 odd (type B).
    p = family.params[0]
    m = p // 2
    odd = p % 2 == 1
    dim = m + 1
    compact = [_unit(dim, (i, 1), (j, -1)) for i in range(m) for j in range(m) if i < j]
    compact += [_unit(dim, (i, 1), (j, 1)) for i in range(m) for j in range(m) if i < j]
    if odd:
        compact += [_unit(dim, (i, 1)) for i in range(m)]
    noncompact = [_unit(dim, (i, s), (m, 1)) for i in range(m) for s in (1, -1)]
    if odd:
        noncompact.append(_unit(dim, (m, 1)))
    schmid = [_unit(dim, (0, 1), (m, 1)), _unit(dim, (0, -1), (m, 1))]
    simple = [_unit(dim, (i, 1), (i + 1, -1)) for i in range(m - 1)]
    if odd:
        simple += [_unit(dim, (m - 1, 1))]
    elif m >= 2:
        simple += [_unit(dim, (m - 2, 1), (m - 1, 1))]
    chamber = HPolyhedron(dim, _dominance_rows(simple)) if simple else HPolyhedron.whole_space(dim)
    # Permutation proxy only: the true Weyl group also flips signs (type
    # B/D); the trailing degree-1 factor pins the SO(2) coordinate.
    weyl = WeylDescriptor((m, 1))
    return _finish(family, dim, compact, noncompact, schmid, chamber, weyl,
                   trace_zero=False, unitary_coords=False, schubert_carrier=False)


def _finish(family, dim, compact, noncompact, schmid, chamber, weyl,
            trace_zero, unitary_coords, schubert_carrier) -> GroupData:
    half = Fraction(1, 2)
    rho = RatVec([0] * dim)
    for alpha in compact:
        rho = rho + alpha.scale(half)
    return GroupData(
        family=family,
        dim=dim,
        compact_pos=tuple(compact),
        noncompact_pos=tuple(noncompact),
        rho=rho,
        schmid=tuple(schmid),
        chamber=chamber,
        weyl=weyl,
        weights_p_minus=tuple(-b for b in noncompact),
        trace_zero=trace_zero,
        unitary_coords=unitary_coords,
        schubert_carrier=schubert_carrier,
    )


def pairing(a: RatVec, b: RatVec) -> Fraction:
    """The scalar product used for all root/chamber pairings (plain dot)."""
    return a.dot(b)


def in_hol_chamber(g: GroupData, v: RatVec) -> bool:
    """Dominant and strictly positive against every noncompact positive root."""
    if v.dim != g.dim:
        raise DimensionError(f"vector dim {v.dim} vs group dim {g.dim}")
    if not g.chamber.contains(v):
        return False
    return all(pairing(beta, v) > 0 for beta in g.noncompact_pos)


def schmid_cone(g: GroupData) -> HPolyhedron:
    """H-representation of { sum m_i g_i : m_1 >= ... >= m_r >= 0 }.

    That set is the cone spanned by the partial sums g_1, g_1 + g_2, ...;
    degenerate r = 0 gives the origin.
    """
    sums = []
    for gamma in g.schmid:
        sums.append(sums[-1] + gamma if sums else gamma)
    return cone_hull(sums, g.dim)


def dual_weight(g: GroupData, lam: RatVec) -> RatVec:
    """Highest weight of the dual representation: blockwise reverse-negate."""
    if lam.dim != g.dim:
        raise DimensionError("weight dimension mismatch")
    out = []
    for start, stop in g.weyl.block_ranges():
        out.extend(-x for x in reversed(lam.entries[start:stop]))
    return RatVec(out)
