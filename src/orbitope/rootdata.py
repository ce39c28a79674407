"""Root data of the classical Hermitian families.

Four families are supported, identified by tag:

  sp       Sp(2n, R),   maximal compact U(n),           n >= 1
  su       SU(p, q),    maximal compact S(U(p) x U(q)), p >= q >= 1
  so_star  SO*(2n),     maximal compact U(n),           n >= 3
  so       SO(p, 2),    maximal compact SO(p) x SO(2),  p >= 3

All coordinates are written in the standard torus basis e_1*, .., e_d*.
Roots are tuples of ints, and so is every vector built from them alone;
rho, the half-sum of the compact positive roots, is the one half-integral
weight and a `RatVec`.  Pairings use the plain dot product in these
coordinates, `exactmath._dot` where a root meets a rational point; for the
families with orthonormal torus coordinates this is the invariant pairing
up to one global positive scale, which no membership test can see.
SU(p, q) works in p+q coordinates carrying the trace-zero equality inside
every polyhedron.  SU(n, 1) is instead exposed by default in the
n-coordinate unitary-group convention (noncompact positive roots
b_k = e_k* + sum_j e_j*), which every closed-form polytope description
downstream uses; pass `su_n1_unitary_coords=False` to get the plain
p+q = n+1 picture.

For sp, su and so* the compact Weyl group is a product of symmetric
groups, one per unitary factor, and one helper builds the compact roots,
chamber and Weyl blocks from the block degrees; only the noncompact roots
and the strongly orthogonal family are written out per family.  SO(p, 2)
keeps its own type B/D compact roots; its Weyl group is not a product of
symmetric groups, so it carries no Schubert/coroot data, no polytope
pipeline is defined for it, and its permutation descriptor is only a proxy
(`schubert_carrier` is False).  `GroupData` stores only these per-family
facts; its dimension, rho, module weights and flags are derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactmath import DimensionError, DomainError, HPolyhedron, RatVec, _dot, ineq_eq, ineq_ge
from .weyl import WeylDescriptor

SP = "sp"
SU = "su"
SO_STAR = "so_star"
SO = "so"

# The largest torus dimension whose root data are built.
DIM_CAP = 32

# Parameter keys of each family, in GroupFamily.params order, with the
# least value of each.  The one rule across keys is su's p >= q.
_PARAMS = {SP: {"n": 1}, SU: {"p": 1, "q": 1}, SO_STAR: {"n": 3}, SO: {"p": 3}}


class UnsupportedFamilyError(ValueError):
    """Raised when an operation has no meaning for the given family."""


@dataclass(frozen=True)
class GroupFamily:
    """One classical Hermitian family instance."""

    tag: str
    params: tuple[int, ...]

    def __post_init__(self):
        tag, params = self.tag, self.params
        least = _PARAMS.get(tag)
        if least is None:
            raise ValueError(f"unknown family tag {tag!r}")
        if (
            len(params) != len(least)
            or any(v < low for v, low in zip(params, least.values()))
            or (tag == SU and params[0] < params[1])
        ):
            # The keys as one chain down to the last key's least value,
            # which for su is p >= q >= 1.
            low = list(least.values())[-1]
            raise ValueError(f"{tag} needs {' >= '.join(least)} >= {low}")

    @staticmethod
    def parse(text: str) -> "GroupFamily":
        """Parse CLI strings like 'sp:n=2', 'su:p=2,q=2', 'so_star:n=3',
        'so:p=5'.  For su the key n is accepted as an alias of p.  Unknown
        or repeated keys are rejected."""
        tag, _, argstr = text.partition(":")
        keys = _PARAMS.get(tag)
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
        pairs = zip(_PARAMS[self.tag], self.params)
        return f"{self.tag}:" + ",".join(f"{key}={val}" for key, val in pairs)


@dataclass(frozen=True)
class GroupData:
    """Exact root data of one family instance.

    Stored: the family, the compact and noncompact positive roots, the
    strongly orthogonal (Schmid) family, the dominant chamber, the Weyl
    blocks and the su(n, 1) convention flag; equality compares these.
    Derived when the object is made, so a `dataclasses.replace` copy never
    keeps stale values: dim (the Weyl blocks' total degree), rho (the
    half-sum of the compact positive roots), weights_p_minus (the negated
    noncompact positive roots), trace_zero (the chamber carries the trace
    equality, as for su(p, q) in p + q coordinates) and schubert_carrier
    (False exactly for so(p, 2)).
    """

    family: GroupFamily
    compact_pos: tuple[tuple[int, ...], ...]
    noncompact_pos: tuple[tuple[int, ...], ...]
    schmid: tuple[tuple[int, ...], ...]
    chamber: HPolyhedron
    weyl: WeylDescriptor
    unitary_coords: bool  # SU(n,1) exposed in the n-coordinate convention
    dim: int = field(init=False, compare=False)
    rho: RatVec = field(init=False, compare=False)
    weights_p_minus: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    trace_zero: bool = field(init=False, compare=False)
    schubert_carrier: bool = field(init=False, compare=False)

    def __post_init__(self):
        dim = self.weyl.dim
        derived = {
            "dim": dim,
            "rho": RatVec(Fraction(sum(alpha[i] for alpha in self.compact_pos), 2)
                          for i in range(dim)),
            "weights_p_minus": tuple(tuple(-x for x in b) for b in self.noncompact_pos),
            "trace_zero": ineq_eq([1] * dim, 0) in self.chamber.ineqs,
            "schubert_carrier": self.family.tag != SO,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __hash__(self):
        # build's inputs, not every root and chamber row; __eq__ still compares
        # every stored field, so a group made with dataclasses.replace gets its
        # own memos.
        return hash((self.family, self.unitary_coords))

    def label(self) -> str:
        return self.family.spec_string()


def _unit(dim: int, *idx_sign) -> tuple[int, ...]:
    """Sum of +-e_i given (index, sign) pairs, 0-indexed."""
    v = [0] * dim
    for i, s in idx_sign:
        v[i] += s
    return tuple(v)


def _chamber(dim: int, simple_roots, trace_zero: bool = False) -> HPolyhedron:
    """Dominance against the simple roots, plus the trace equality."""
    rows = [ineq_ge(alpha, 0) for alpha in simple_roots]
    if trace_zero:
        rows.append(ineq_eq([1] * dim, 0))
    return HPolyhedron(dim, rows)


def _unitary_blocks(degrees: tuple[int, ...], trace_zero: bool = False):
    """(compact positive roots, chamber, Weyl group) of a compact group whose
    Weyl group is S_{d1} x ... x S_{df}: the roots e_i - e_j (i < j) inside
    each block, with the simple ones e_i - e_{i+1} as chamber walls."""
    weyl = WeylDescriptor(degrees)
    dim = weyl.dim
    compact, simple = [], []
    for start, stop in weyl.block_ranges():
        compact += [_unit(dim, (i, 1), (j, -1)) for i in range(start, stop)
                    for j in range(i + 1, stop)]
        simple += [_unit(dim, (i, 1), (i + 1, -1)) for i in range(start, stop - 1)]
    return compact, _chamber(dim, simple, trace_zero), weyl


def build(family: GroupFamily, su_n1_unitary_coords: bool = True) -> GroupData:
    """Instantiate the root data of one family; DomainError, before any
    root is made, when its torus dimension is past DIM_CAP."""
    tag, params = family.tag, family.params
    unitary = tag == SU and params[1] == 1 and su_n1_unitary_coords
    if tag == SO:
        dim = params[0] // 2 + 1
    else:
        dim = params[0] + (params[1] if tag == SU and not unitary else 0)
    if dim > DIM_CAP:
        raise DomainError(f"{family.spec_string()} has torus dimension {dim} > {DIM_CAP}")
    if tag == SO:
        return _build_so(family)
    if tag == SU and not unitary:
        p, q = params
        compact, chamber, weyl = _unitary_blocks((p, q), trace_zero=True)
        noncompact = [_unit(dim, (i, 1), (p + j, -1)) for i in range(p) for j in range(q)]
        # Strongly orthogonal family (b_{1,p+q}, b_{2,p+q-1}, ..., b_{q,p+1}).
        schmid = [_unit(dim, (i, 1), (dim - 1 - i, -1)) for i in range(q)]
    else:
        n = params[0]
        compact, chamber, weyl = _unitary_blocks((n,))
        if tag == SP:
            noncompact = [_unit(n, (i, 1), (j, 1)) for i in range(n) for j in range(i, n)]
            schmid = [_unit(n, (i, 2)) for i in range(n)]
        elif tag == SU:
            # b_k = e_k + sum_j e_j in the unitary-group convention.
            noncompact = [tuple(1 + (j == k) for j in range(n)) for k in range(n)]
            schmid = [noncompact[0]]
        else:
            noncompact = [_unit(n, (i, 1), (j, 1)) for i in range(n) for j in range(i + 1, n)]
            schmid = [_unit(n, (2 * j, 1), (2 * j + 1, 1)) for j in range(n // 2)]
    return GroupData(family, tuple(compact), tuple(noncompact), tuple(schmid),
                     chamber, weyl, unitary)


def _build_so(family: GroupFamily) -> GroupData:
    """SO(p, 2): p = 2m even (type D compact factor) or p = 2m+1 odd (type B)."""
    p = family.params[0]
    m = p // 2
    odd = p % 2 == 1
    dim = m + 1
    compact = [_unit(dim, (i, 1), (j, -1)) for i in range(m) for j in range(i + 1, m)]
    compact += [_unit(dim, (i, 1), (j, 1)) for i in range(m) for j in range(i + 1, m)]
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
    # Permutation proxy only: the true Weyl group also flips signs (type
    # B/D); the trailing degree-1 factor pins the SO(2) coordinate.
    return GroupData(family, tuple(compact), tuple(noncompact), tuple(schmid),
                     _chamber(dim, simple), WeylDescriptor((m, 1)), False)


def in_hol_chamber(g: GroupData, v: RatVec) -> bool:
    """Dominant and strictly positive against every noncompact positive root."""
    if v.dim != g.dim:
        raise DimensionError(f"vector dim {v.dim} vs group dim {g.dim}")
    if not g.chamber.contains(v):
        return False
    return all(_dot(beta, v)[0] > 0 for beta in g.noncompact_pos)


def dual_weight(g: GroupData, lam) -> tuple:
    """Highest weight of the dual representation, -w0 lam: blockwise
    reverse-negate, as a tuple of the entries' own type."""
    if len(lam) != g.dim:
        raise DimensionError("weight dimension mismatch")
    return tuple(-x for x in g.weyl.longest().act(lam))
