"""Integer cohomology of products of type-A complete flag varieties.

The ring H*(GL_n/B, Z) is realized in the polynomial model: the class of a
permutation w is its Schubert polynomial, computed by divided differences
descending from the staircase monomial of the longest element.  Products
are multiplied as polynomials and re-expanded in the (stable) Schubert
basis by repeatedly stripping the leading monomial, which for a Schubert
polynomial is x^code(w) with coefficient 1 in the reverse-reading
lexicographic order; permutations that do not fit in S_n are then
truncated away.  The degree-2 multiplication rule (Chevalley / Monk)

    Theta(mu) . s_w = sum over a < b with l(w t_ab) = l(w) + 1
                      of  (mu_a - mu_b) . s_{w t_ab}

is implemented independently of the polynomial model and serves as its
cross-check throughout the test suite.  The covers w t_ab are read off the
one-line notation: l(w t_ab) = l(w) + 1 exactly when w(a) < w(b) and no
position between a and b holds a value between w(a) and w(b) (Monk 1959,
"The geometry of flag manifolds"; Bjorner-Brenti, Combinatorics of Coxeter
Groups, ch. 2).

Products of factors are handled factor-wise: a class of
H*(prod GL_{n_f}/B) is a Z-combination of tuples of factor permutations
(`weyl.Weyl`), and cup products distribute over the tensor decomposition.
A class is a plain dict {Weyl: int}: no zero coefficient, every key of one
length (half the cohomological degree), {} for zero and {w: 1} for the
basis class of w.  Both products keep that form, so equality is dict
equality.

The well-covering criterion uses two products: `chevalley_mult` for its
Theta factors and `cup` for the last one.  Theta of a lone weight and the
Poincare duality check on a parabolic quotient are reference code for the
tests (`tests/reference.py`).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .weyl import Weyl, WeylDescriptor

Mono = Tuple[int, ...]
Poly = Dict[Mono, int]


# ---------------------------------------------------------------------------
# Integer polynomials in x_1..x_k (monomial dicts, zero terms absent)
# ---------------------------------------------------------------------------


def _pad(mono: Mono, width: int) -> Mono:
    return mono + (0,) * (width - len(mono))


def _trim(mono: Mono) -> Mono:
    k = len(mono)
    while k > 0 and mono[k - 1] == 0:
        k -= 1
    return mono[:k]


def _trim_perm(images: Tuple[int, ...]) -> Tuple[int, ...]:
    """One-line notation with trailing fixed points removed."""
    k = len(images)
    while k > 1 and images[k - 1] == k:
        k -= 1
    return images[:k]


def poly_add(f: Poly, g: Poly, scale: int = 1) -> Poly:
    out = dict(f)
    for m, c in g.items():
        c = c * scale
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly_mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            w = max(len(ma), len(mb))
            m = tuple(a + b for a, b in zip(_pad(ma, w), _pad(mb, w)))
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def divided_difference(f: Poly, i: int) -> Poly:
    """The operator (f - s_i f) / (x_i - x_{i+1}), i >= 1.

    Computed monomial by monomial: with exponents (p, q) at positions
    (i, i+1), the image is sign(p - q) * sum of monomials with those
    exponents replaced by (t, p+q-1-t) for t between min(p,q) and
    max(p,q)-1.
    """
    out: Poly = {}
    for mono, coeff in f.items():
        w = max(len(mono), i + 1)
        m = list(_pad(mono, w))
        p, q = m[i - 1], m[i]
        if p == q:
            continue
        sign = 1 if p > q else -1
        lo, hi = min(p, q), max(p, q)
        for t in range(lo, hi):
            m2 = list(m)
            m2[i - 1], m2[i] = t, p + q - 1 - t
            key = _trim(tuple(m2))
            nc = out.get(key, 0) + sign * coeff
            if nc:
                out[key] = nc
            else:
                out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# Schubert polynomials and stable expansion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def schubert_poly(images: Tuple[int, ...]) -> "frozenset":
    """Schubert polynomial of the permutation with the given (trimmed)
    one-line notation, as a frozenset of (monomial, coeff) items."""
    n = len(images)
    # Pick the first ascent; S_w = d_i S_{w s_i} with l(w s_i) = l(w) + 1.
    i = next((k for k in range(1, n) if images[k - 1] < images[k]), None)
    if i is None:  # no ascent: w is the longest element
        return frozenset({(_trim(tuple(range(n - 1, -1, -1))), 1)})
    swapped = images[:i - 1] + (images[i], images[i - 1]) + images[i + 1:]
    higher = dict(schubert_poly(_trim_perm(swapped)))
    # The trimmed higher permutation may live in a smaller symmetric group,
    # but the divided difference only needs exponent positions i, i+1.
    return frozenset(divided_difference(higher, i).items())


def _rev_key(mono: Mono, width: int) -> Tuple[int, ...]:
    return tuple(reversed(_pad(mono, width)))


def perm_from_code(code: Sequence[int]) -> Tuple[int, ...]:
    """The unique permutation with the given Lehmer code (trailing zeros
    extend by fixed points as needed)."""
    code = list(code)
    n = max([i + 1 + c for i, c in enumerate(code)] + [len(code), 1])
    values = list(range(1, n + 1))
    images = []
    for i in range(n):
        c = code[i] if i < len(code) else 0
        images.append(values.pop(c))
    return tuple(images)


def expand_in_schubert(f: Poly) -> Dict[Tuple[int, ...], int]:
    """Expansion of a polynomial over the stable Schubert basis.

    Returns {trimmed one-line notation: integer coefficient}.  Relies on
    the leading-monomial property: max monomial of S_w in the
    reverse-reading lex order is x^code(w) with coefficient 1.
    """
    out: Dict[Tuple[int, ...], int] = {}
    rest = dict(f)
    guard = 0
    while rest:
        guard += 1
        if guard > 100000:
            raise AssertionError("schubert expansion did not terminate")
        width = max(len(m) for m in rest)
        mono = max(rest, key=lambda m: _rev_key(m, width))
        coeff = rest[mono]
        key = _trim_perm(perm_from_code(_pad(mono, width)))
        out[key] = out.get(key, 0) + coeff
        rest = poly_add(rest, dict(schubert_poly(key)), scale=-coeff)
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _factor_cup(n: int, u_images: Tuple[int, ...], v_images: Tuple[int, ...]):
    """sigma_u . sigma_v inside H*(GL_n/B): multiply the Schubert
    polynomials, expand stably, drop permutations outside S_n."""
    prod = poly_mul(dict(schubert_poly(_trim_perm(u_images))),
                    dict(schubert_poly(_trim_perm(v_images))))
    terms = expand_in_schubert(prod)
    return tuple(
        (w, c) for w, c in sorted(terms.items()) if len(w) <= n
    )


# ---------------------------------------------------------------------------
# The ring
# ---------------------------------------------------------------------------

# A class: {Weyl: int}, graded, no zero coefficient (module docstring).
Coh = Dict[Weyl, int]


class SchubertRing:
    """H* of a product of type-A complete flag varieties.

    degrees are the factor sizes (n_1, ..., n_f); classes are keyed by
    Weyl elements over the matching WeylDescriptor.  Weight arguments are
    sequences of ints in the blockwise coordinates of the owning group
    (dimension sum(degrees)).
    """

    def __init__(self, degrees: Sequence[int]):
        self.degrees = tuple(int(d) for d in degrees)
        self.group = WeylDescriptor(self.degrees)

    def _blocks(self, mu: Sequence[int]):
        if len(mu) != self.group.dim:
            raise ValueError("weight dimension does not match ring")
        return [mu[a:b] for a, b in self.group.block_ranges()]

    # -- degree-2 classes and the Chevalley rule ---------------------------
    def chevalley_mult(self, c: Coh, mu: Sequence[int]) -> Coh:
        """Theta(mu) . c by Monk's rule (see the module docstring) for an
        integer weight mu: in each factor, every cover w t_ab of a term w
        gains mu_a - mu_b of that factor's block."""
        blocks = self._blocks(mu)
        out: Coh = {}
        for w, coeff in c.items():
            for f, blk in enumerate(blocks):
                imgs = w[f]
                for a in range(len(imgs) - 1):
                    low = imgs[a]
                    # The least value above low seen between a and b so far.
                    ceiling = len(imgs) + 1
                    for b in range(a + 1, len(imgs)):
                        high = imgs[b]
                        if not low < high < ceiling:
                            continue
                        ceiling = high
                        cv = blk[a] - blk[b]
                        if cv:
                            swapped = list(imgs)
                            swapped[a], swapped[b] = high, low
                            nw = w[:f] + (tuple(swapped),) + w[f + 1:]
                            nc = out.get(nw, 0) + coeff * cv
                            if nc:
                                out[nw] = nc
                            else:
                                out.pop(nw, None)
        return out

    # -- full cup product (polynomial model) -------------------------------
    def cup(self, a: Coh, b: Coh) -> Coh:
        out: Coh = {}
        for w, cw in a.items():
            for v, cv in b.items():
                factor_terms = []
                for f, d in enumerate(self.degrees):
                    prods = _factor_cup(d, w[f], v[f])
                    if not prods:
                        factor_terms = None
                        break
                    factor_terms.append(prods)
                if factor_terms is None:
                    continue
                for combo in itertools.product(*factor_terms):
                    coeff = cw * cv
                    perms = []
                    for (imgs, c), d in zip(combo, self.degrees):
                        coeff *= c
                        perms.append(imgs + tuple(range(len(imgs) + 1, d + 1)))
                    nw = tuple(perms)
                    nc = out.get(nw, 0) + coeff
                    if nc:
                        out[nw] = nc
                    else:
                        out.pop(nw, None)
        return out
