"""Well-covering pairs for the projective setup attached to the negative
off-diagonal module.

Fix a group datum g with a type-A compact Weyl carrier and a dominant
indivisible admissible cocharacter lam.  The variety under consideration
is flag x flag x P(M) with M the direct sum of the negative off-diagonal
module and a trivial line; its lam-fixed components are indexed by
(w, w', m) with w, w' longest coset representatives mod the stabilizer
W_lam and m a weight level of M.

The combinatorial criterion implemented by `is_well_covering`:

  the pair is well-covering  iff  either  w' = w0 w w_lam and M_{<m} = 0,
  or both
    (i)  s_{w0 w} . s_{w0 w'} . prod_{b in weights(M_{<m})} Theta(-b)
         equals s_{w0 w_lam} in the Borel model, and
    (ii) <w lam + w' lam, rho> + sum_{k<m} (m - k) dim M_{lam,k} = 0.

`enumerate_m0` lists the m = 0 well-covering pairs after the length
prefilter l(w) + l(w') = l(w0) + l(w_lam) + dim M_{<0}, and assembly adds
one row per pair.  Dropping the equality in (i) to mere nonvanishing gives
the dominant pairs, a superset whose extra rows the dominant-pair theorem
makes redundant; only the tests assemble from them, as a check
(`tests/reference.py`).

The classes of (i) are the plain dicts of `schubert` ({w: 1} for s_w),
so (i) is one dict comparison.  The pairs live on their context:
`context` is memoised on (g, lam) and states each Weyl fact of the pair
layer once: w0, the target class s_{w0 w_lam} and the length of each
representative, keyed by it.  Its `pairs` are enumerated once, for every
orbit parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .exactmath import _dot
from .rootdata import GroupData, UnsupportedFamilyError
from .schubert import Coh, SchubertRing
from .weyl import (Weyl, act, check_order_cap, length, max_coset_reps, mul,
                   stabilizer_parabolic, text)


@dataclass(frozen=True)
class WCPair:
    """A candidate pair: w, w' longest coset representatives, a level m
    and the cocharacter lam, a tuple of ints."""

    w: Weyl
    w_prime: Weyl
    m: int
    lam: tuple[int, ...]

    @cached_property
    def row_vectors(self) -> tuple:
        """(w lam, w0 w' lam), tuples of ints: the normal of the pair's
        assembled row and the vector whose pairing with Lambda is its
        bound.  Neither depends on Lambda, so a cached pair builds them once
        and its rows share them."""
        w0 = tuple(tuple(range(len(p), 0, -1)) for p in self.w)
        return act(self.w, self.lam), act(mul(w0, self.w_prime), self.lam)

    @cached_property
    def source(self) -> tuple:
        """("pair", lam, w text, w' text): the source record of the pair's
        row, built once per pair and shared by every answer that offers
        that row."""
        return "pair", self.lam, text(self.w), text(self.w_prime)

    def to_json_obj(self):
        _, lam, w, w_prime = self.source
        return {"w": w, "w_prime": w_prime, "m": self.m, "lambda": list(lam)}


class GradedModule:
    """Weight levels of (negative off-diagonal module) + trivial line under
    a cocharacter: level(b) = <lam, b>, the trivial line sits at level 0.
    Weights and levels are ints."""

    __slots__ = ("dim", "levels", "dims")

    def __init__(self, g: GroupData, lam: tuple[int, ...]):
        self.dim = g.dim
        levels: dict[int, list[tuple]] = {}
        for beta in g.weights_p_minus:
            k = sum(a * b for a, b in zip(lam, beta))
            levels.setdefault(k, []).append(beta)
        self.levels = {k: tuple(v) for k, v in sorted(levels.items())}
        dims = {k: len(v) for k, v in self.levels.items()}
        dims[0] = dims.get(0, 0) + 1  # the trivial line
        self.dims = dict(sorted(dims.items()))

    def weights_below(self, m: int) -> list[tuple]:
        """Module weights of level < m, with multiplicity, including the
        zero weight of the trivial line when m > 0."""
        out = []
        for k, betas in self.levels.items():
            if k < m:
                out.extend(betas)
        if m > 0:
            out.append((0,) * self.dim)
        return out

    def dim_below(self, m: int) -> int:
        return sum(d for k, d in self.dims.items() if k < m)

    def level_nonempty(self, m: int) -> bool:
        """Nonemptiness of the m-component of P(M): level 0 always holds
        the trivial line."""
        return m == 0 or m in self.levels


@dataclass(frozen=True)
class LambdaContext:
    """Everything enumerate/is_well_covering needs for one (g, lam),
    including its m = 0 pair set, computed on first use."""

    g: GroupData
    lam: tuple[int, ...]
    w_lambda: Weyl
    reps: tuple[Weyl, ...]
    graded: GradedModule
    ring: SchubertRing

    @cached_property
    def w0(self) -> Weyl:
        return self.ring.group.longest()

    @cached_property
    def target(self) -> Coh:
        """s_{w0 w_lam}, the class criterion (i) asks for."""
        return {mul(self.w0, self.w_lambda): 1}

    @cached_property
    def lengths(self) -> dict[Weyl, int]:
        """l(w) of each representative w, in the order of reps."""
        return {w: length(w) for w in self.reps}

    @cached_property
    def pairs(self) -> tuple[WCPair, ...]:
        """The m = 0 well-covering pairs, in sorted order (see enumerate_m0)."""
        target_len = length(self.w0) + length(self.w_lambda) + self.graded.dim_below(0)
        lengths = self.lengths.items()
        candidates = (WCPair(w, w_prime, 0, self.lam) for w, lw in lengths for w_prime, lwp in lengths
                      if lw + lwp == target_len)
        return _sorted_pairs(p for p in candidates if is_well_covering(self.g, p))


def _sorted_pairs(pairs) -> tuple[WCPair, ...]:
    return tuple(sorted(pairs, key=lambda p: (p.w, p.w_prime)))


def require_pairs(g: GroupData) -> None:
    """Raise, before any admissible scan, when the pairs of g cannot be
    listed: no type-A Schubert carrier, or a Weyl group past the order cap
    of `max_coset_reps`."""
    if not g.schubert_carrier:
        raise UnsupportedFamilyError(
            f"{g.label()} has no type-A Schubert carrier; well-covering "
            "pairs are not defined here"
        )
    check_order_cap(g.weyl)


@cache
def context(g: GroupData, lam: tuple[int, ...]) -> LambdaContext:
    """The one LambdaContext of (g, lam), memoised on that pair.  For the
    families with pairs a dominant lam is one that is blockwise weakly
    decreasing, and `stabilizer_parabolic` refuses any other."""
    require_pairs(g)
    w_lambda = stabilizer_parabolic(g.weyl, lam)
    reps = tuple(max_coset_reps(g.weyl, lam))
    return LambdaContext(g, lam, w_lambda, reps, GradedModule(g, lam), SchubertRing(g.weyl.degrees))


def _criterion_product(ctx: LambdaContext, pair: WCPair) -> Coh:
    """s_{w0 w} . s_{w0 w'} . prod Theta(-b) over weights of M_{<m}."""
    ring = ctx.ring
    acc = {mul(ctx.w0, pair.w_prime): 1}
    for beta in ctx.graded.weights_below(pair.m):
        acc = ring.chevalley_mult(acc, [-b for b in beta])
        if not acc:
            return acc
    return ring.cup({mul(ctx.w0, pair.w): 1}, acc)


def _check_pair_shape(ctx: LambdaContext, pair: WCPair):
    if pair.w not in ctx.lengths or pair.w_prime not in ctx.lengths:
        raise ValueError("w and w' must be longest coset representatives mod W_lambda")


def is_well_covering(g: GroupData, pair: WCPair) -> bool:
    """The combinatorial well-covering criterion (see module docstring)."""
    ctx = context(g, pair.lam)
    _check_pair_shape(ctx, pair)
    if not ctx.graded.level_nonempty(pair.m):
        return False
    if ctx.graded.dim_below(pair.m) == 0:
        return pair.w_prime == mul(mul(ctx.w0, pair.w), ctx.w_lambda)
    # Numeric condition (ii) first, it is cheap: <w lam + w' lam, rho> is
    # num / den, and the level sum is an integer.
    lam = pair.lam
    num, den = _dot([a + b for a, b in zip(act(pair.w, lam), act(pair.w_prime, lam))], g.rho)
    if num + den * sum((pair.m - k) * d for k, d in ctx.graded.dims.items() if k < pair.m):
        return False
    return _criterion_product(ctx, pair) == ctx.target


def enumerate_m0(g: GroupData, lam: tuple[int, ...]) -> list[WCPair]:
    """All m = 0 well-covering pairs for lam, in sorted order.

    Candidates are prefiltered by the length equation
    l(w) + l(w') = l(w0) + l(w_lambda) + dim M_{<0} before any cup product
    is computed.  The pair set does not depend on the orbit parameter, so
    it is computed once per (g, lam), on the context.
    """
    return list(context(g, lam).pairs)
