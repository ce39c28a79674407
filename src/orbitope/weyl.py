"""Permutations and products of symmetric groups.

A permutation of 1..n is its one-line notation, the tuple of its 1-indexed
images.  A Weyl element (`Weyl`) is the tuple of its factors' image
tuples, one per unitary factor of the maximal compact subgroup, e.g.
((2, 1, 3), (1, 2)); tuple order is the order of its pairs and listings.
Products are function composition factor by factor (`mul`), so
(a . b)(i) = a(b(i)) and words like s1 s2 are read right to left.
Lengths are inversion counts (`length`), never reduced-word lengths.  An
element acts on coordinate vectors blockwise (`act`), by permuting any
sequence into a tuple of the same entries, and prints as its factors'
one-line notations joined by '|' (`text`).  The pair layer reads only
products, lengths, the longest element and this action, and the vectors
it acts on are the integer cocharacters: nothing here needs a rational
number.

The parabolic data of a dominant vector lam are just w_lambda, the longest
element of its stabilizer W_lambda, and both come from the runs of equal
coordinates of lam inside each block, with no listing of W or W_lambda:
w_lambda reverses every run (`stabilizer_parabolic`), and the longest
representative of each coset w W_lambda is read off the orbit point
w . lam (`max_coset_reps`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

from .exactmath import DimensionError, DomainError

# The largest Weyl group whose coset representatives are listed.
ORDER_CAP = 10**4


# A Weyl element: one one-line image tuple per factor (module docstring).
Weyl = Tuple[Tuple[int, ...], ...]


def length(w: Weyl) -> int:
    """The number of inversions, summed over the factors."""
    return sum(a > b for p in w for i, a in enumerate(p) for b in p[i + 1:])


def mul(a: Weyl, b: Weyl) -> Weyl:
    """The product a . b, factorwise: (a . b)(i) = a(b(i))."""
    return tuple(tuple(p[i - 1] for i in q) for p, q in zip(a, b))


def act(w: Weyl, v: Sequence) -> tuple:
    """Blockwise coordinate action, (w . v)_{w(i)} = v_i: the k-th factor
    permutes the k-th block of consecutive coordinates of v."""
    out, start = [], 0
    for p in w:
        block = [None] * len(p)
        for i, image in enumerate(p, start):
            block[image - 1] = v[i]
        out.extend(block)
        start += len(p)
    return tuple(out)


def text(w: Weyl) -> str:
    """The factors' one-line notations joined by '|', e.g. '2 1 3|1 2'."""
    return "|".join(" ".join(map(str, p)) for p in w)


@dataclass(frozen=True)
class WeylDescriptor:
    """A product of symmetric groups S_{d1} x ... x S_{df} acting blockwise
    on vectors of dimension d1 + ... + df."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.degrees or any(d < 1 for d in self.degrees):
            raise ValueError("factor degrees must be positive")

    @property
    def dim(self) -> int:
        return sum(self.degrees)

    @property
    def order(self) -> int:
        n = 1
        for d in self.degrees:
            for k in range(2, d + 1):
                n *= k
        return n

    def block_ranges(self):
        """(start, stop) index pairs of each factor block."""
        out = []
        start = 0
        for d in self.degrees:
            out.append((start, start + d))
            start += d
        return out

    def longest(self) -> Weyl:
        return tuple(tuple(range(d, 0, -1)) for d in self.degrees)


def _runs(values: Sequence) -> list[tuple[int, ...]]:
    """The runs of equal adjacent entries, as tuples of 1-indexed positions."""
    runs: list[tuple[int, ...]] = []
    for i, v in enumerate(values, start=1):
        if runs and values[i - 2] == v:
            runs[-1] += (i,)
        else:
            runs.append((i,))
    return runs


def _longest(targets: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The images of the permutation sending the k-th run's positions, in
    order, to the k-th target tuple (increasing) read backwards."""
    return tuple(i for t in targets for i in reversed(t))


def _placements(free: Sequence[int], sizes: Sequence[int]):
    """Every choice of disjoint increasing target tuples of the given
    sizes from free, one per run in turn."""
    if not sizes:
        yield ()
        return
    for chosen in itertools.combinations(free, sizes[0]):
        rest = [i for i in free if i not in chosen]
        for tail in _placements(rest, sizes[1:]):
            yield (chosen, *tail)


def _dominant_blocks(group: WeylDescriptor, lam: Sequence) -> list:
    """The blocks of lam, checked to be of the group's dimension and
    dominant (blockwise weakly decreasing)."""
    if len(lam) != group.dim:
        raise DimensionError("lambda dimension does not match group")
    blocks = [lam[start:stop] for start, stop in group.block_ranges()]
    if any(a < b for block in blocks for a, b in zip(block, block[1:])):
        raise ValueError("lambda must be dominant (blockwise weakly decreasing)")
    return blocks


def stabilizer_parabolic(group: WeylDescriptor, lam: Sequence) -> Weyl:
    """w_lambda, the longest element of the stabilizer W_lambda of a
    dominant vector lam: W_lambda is the product of the symmetric groups on
    the runs of equal coordinates inside each block, so w_lambda reverses
    every run."""
    return tuple(_longest(_runs(block)) for block in _dominant_blocks(group, lam))


def check_order_cap(group: WeylDescriptor) -> None:
    """DomainError when W is past ORDER_CAP, before any work is done."""
    if group.order > ORDER_CAP:
        raise DomainError(f"group too large to enumerate: order {group.order}")


def max_coset_reps(group: WeylDescriptor, lam: Sequence) -> list[Weyl]:
    """Longest representatives of the cosets w W_lambda of a dominant
    vector lam, one per coset, sorted.

    The coset of w is fixed by the orbit point w . lam, a rearrangement of
    lam inside each block (W_lambda is exactly the stabilizer of lam).  Its
    longest element sends the positions of each run of lam to the positions
    that run's value takes in w . lam, in decreasing order: every pair
    inside a run is then an inversion, and the inversions between runs are
    fixed by w . lam (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    on parabolic quotients).
    """
    check_order_cap(group)
    factors = []
    for block in _dominant_blocks(group, lam):
        sizes = [len(run) for run in _runs(block)]
        factors.append([_longest(p) for p in _placements(range(1, len(block) + 1), sizes)])
    return sorted(itertools.product(*factors))
