"""Permutations and products of symmetric groups.

Elements are stored in one-line notation (1-indexed images); products are
function composition, so (a * b)(i) = a(b(i)) and words like s1*s2 are read
right to left.  Lengths are inversion counts, never reduced-word lengths.

A WeylElt is a tuple of factor permutations, one per unitary factor of the
maximal compact subgroup; it acts on coordinate vectors blockwise, by
permuting any sequence into a tuple of the same entries.  The pair layer
reads only products, lengths, the longest element and this action off it,
and the vectors it acts on are the integer cocharacters: nothing here
needs a rational number.

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
from typing import Iterable, Sequence

from .exactmath import DimensionError, DomainError

# The largest Weyl group whose coset representatives are listed.
ORDER_CAP = 10**4


class Perm:
    """A permutation of {1..n} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(i) for i in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        self.images = imgs

    @classmethod
    def _valid(cls, images: tuple) -> "Perm":
        """The permutation of a tuple of ints that is one already (two
        entries of a permutation swapped, as `SchubertRing.chevalley_mult`
        builds it), without the check."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"

    def one_line(self) -> str:
        return " ".join(str(i) for i in self.images)

    @staticmethod
    def longest(n: int) -> "Perm":
        return Perm(range(n, 0, -1))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "Perm":
        imgs = list(range(1, n + 1))
        imgs[a - 1], imgs[b - 1] = imgs[b - 1], imgs[a - 1]
        return Perm(imgs)

    @staticmethod
    def simple(n: int, i: int) -> "Perm":
        """s_i = t_{i,i+1}, 1 <= i <= n-1."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"simple reflection index {i} out of range for S_{n}")
        return Perm.transposition(n, i, i + 1)

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("composing permutations of different degree")
        return Perm(self.images[other.images[i] - 1] for i in range(self.degree))

    def length(self) -> int:
        """Number of inversions."""
        inv = 0
        imgs = self.images
        n = self.degree
        for i in range(n):
            for j in range(i + 1, n):
                if imgs[i] > imgs[j]:
                    inv += 1
        return inv

    def act_tuple(self, values: Sequence) -> tuple:
        """Coordinate action: (w . v)_{w(i)} = v_i."""
        out = [None] * self.degree
        for i in range(self.degree):
            out[self.images[i] - 1] = values[i]
        return tuple(out)

    def trim(self) -> tuple[int, ...]:
        """One-line notation with trailing fixed points removed."""
        imgs = list(self.images)
        while len(imgs) > 1 and imgs[-1] == len(imgs):
            imgs.pop()
        return tuple(imgs)


class WeylElt:
    """An element of a product of symmetric groups."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Perm]):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("WeylElt needs at least one factor")

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"WeylElt({self.text()!r})"

    def text(self) -> str:
        """Factor one-line notations joined by '|', e.g. '2 1 3|1 2'."""
        return "|".join(f.one_line() for f in self.factors)

    def sort_key(self) -> tuple:
        return tuple(f.images for f in self.factors)

    def length(self) -> int:
        return sum(f.length() for f in self.factors)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        if len(self.factors) != len(other.factors):
            raise ValueError("mismatched factor counts")
        return WeylElt(a * b for a, b in zip(self.factors, other.factors))

    def act(self, v: Sequence) -> tuple:
        """Blockwise coordinate permutation action: the k-th factor permutes
        the k-th block of consecutive coordinates of the sequence v."""
        out, start = [], 0
        for perm in self.factors:
            stop = start + perm.degree
            out.extend(perm.act_tuple(v[start:stop]))
            start = stop
        return tuple(out)


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

    def longest(self) -> WeylElt:
        return WeylElt(Perm.longest(d) for d in self.degrees)


def _runs(values: Sequence) -> list[tuple[int, ...]]:
    """The runs of equal adjacent entries, as tuples of 1-indexed positions."""
    runs: list[tuple[int, ...]] = []
    for i, v in enumerate(values, start=1):
        if runs and values[i - 2] == v:
            runs[-1] += (i,)
        else:
            runs.append((i,))
    return runs


def _longest(targets: Sequence[tuple[int, ...]]) -> Perm:
    """The permutation sending the k-th run's positions, in order, to the
    k-th target tuple (increasing) read backwards."""
    return Perm(i for t in targets for i in reversed(t))


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


def stabilizer_parabolic(group: WeylDescriptor, lam: Sequence) -> WeylElt:
    """w_lambda, the longest element of the stabilizer W_lambda of a
    dominant vector lam: W_lambda is the product of the symmetric groups on
    the runs of equal coordinates inside each block, so w_lambda reverses
    every run."""
    return WeylElt(_longest(_runs(block)) for block in _dominant_blocks(group, lam))


def check_order_cap(group: WeylDescriptor) -> None:
    """DomainError when W is past ORDER_CAP, before any work is done."""
    if group.order > ORDER_CAP:
        raise DomainError(f"group too large to enumerate: order {group.order}")


def max_coset_reps(group: WeylDescriptor, lam: Sequence) -> list[WeylElt]:
    """Longest representatives of the cosets w W_lambda of a dominant
    vector lam, one per coset, sorted by WeylElt.sort_key.

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
    return sorted((WeylElt(f) for f in itertools.product(*factors)), key=WeylElt.sort_key)
