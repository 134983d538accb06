"""Cyclic intervals, rectangles, and blocking pairs.

Geometry for the double-counting machinery: intervals live on a cycle Z_n,
rectangles are direct products of one interval per axis in Z_n1 x Z_n2.
A modulus of 0 denotes the empty axis of a one-part ground set; its only
interval is the degenerate empty one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .families import Universe, iter_bits


def point_distance(u: int, v: int, n: int) -> int:
    """Cyclic distance on Z_n: the shorter way around."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"points {u},{v} outside Z_{n}")
    d = abs(u - v)
    return min(d, n - d)


@dataclass(frozen=True, order=True)
class Interval:
    """Consecutive run {start, start+1, ..., start+length-1} mod n."""

    n: int
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.n == 0:
            if self.start != 0 or self.length != 0:
                raise ValueError("the empty axis has only the degenerate interval")
            return
        if not 1 <= self.length <= self.n:
            raise ValueError(f"interval length {self.length} invalid on Z_{self.n}")
        if not 0 <= self.start < self.n:
            raise ValueError(f"interval start {self.start} outside Z_{self.n}")
        if self.length == self.n and self.start != 0:
            object.__setattr__(self, "start", 0)  # full cycle has one representation

    def contains(self, x: int) -> bool:
        if self.n == 0:
            return False
        return (x - self.start) % self.n < self.length

    def overlaps(self, other: "Interval") -> bool:
        """Two arcs meet exactly when one of them starts inside the other."""
        _check_modulus(self, other)
        return self.contains(other.start) or other.contains(self.start)


def _check_modulus(i1: Interval, i2: Interval) -> None:
    if i1.n != i2.n:
        raise ValueError(f"modulus mismatch: Z_{i1.n} vs Z_{i2.n}")


def interval_distance(i1: Interval, i2: Interval) -> int:
    """Minimum cyclic distance over element pairs; 0 exactly when they overlap.

    Disjoint arcs leave two gaps on the cycle; the closest pair straddles
    one of them, so the distance is the shorter step from the last element
    of one arc forward to the first element of the other.
    """
    _check_modulus(i1, i2)
    n = i1.n
    if n == 0:
        raise ValueError("distance undefined on the empty axis")
    if i1.overlaps(i2):
        return 0
    return min((i2.start - i1.start - i1.length + 1) % n,
               (i1.start - i2.start - i2.length + 1) % n)


def all_intervals(n: int, length: int) -> list[Interval]:
    """Every length-``length`` interval of Z_n (a single one for the full cycle)."""
    if length == n:
        return [Interval(n, 0, length)]
    return [Interval(n, s, length) for s in range(n)]


@dataclass(frozen=True, order=True)
class Rectangle:
    """Direct product I x J of an interval per axis."""

    i: Interval
    j: Interval

    @property
    def shape(self) -> tuple[int, int]:
        return (self.i.length, self.j.length)


def proj_intersecting(r1: Rectangle, r2: Rectangle) -> bool:
    """True when the I-projections or the J-projections overlap."""
    return r1.i.overlaps(r2.i) or r1.j.overlaps(r2.j)


def _arc_mask(iv: Interval) -> int:
    """The bitset of an interval's elements on Z_n."""
    run = ((1 << iv.length) - 1) << iv.start
    return (run | run >> iv.n) & ((1 << iv.n) - 1)


J_BASE = "j_base"  # shared J-projection, I-projections far apart
I_BASE = "i_base"  # shared I-projection, J-projections far apart


@dataclass(frozen=True)
class BlockingPair:
    """Two rectangles sharing one projection (the base) and far apart on the other axis."""

    kind: str
    first: Rectangle
    second: Rectangle
    base: Interval


def blocking_rows(rects: list[Rectangle], b: int) -> tuple[list[int], list[int]]:
    """Per rectangle v, the bitsets of its shared-J and of its shared-I blocking partners.

    Per axis the rectangles form one bitset per distinct interval, and each
    interval's far row ORs those at distance >= b+1 from it.  v's shared-J row
    is its J-interval's bitset AND its I-interval's far row; mirrored for I.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    same, far = [], []  # per axis (I, then J), per rectangle
    for ivs in ([r.i for r in rects], [r.j for r in rects]):
        ids: dict[Interval, int] = {}
        of = [ids.setdefault(iv, len(ids)) for iv in ivs]
        group, apart = [0] * len(ids), [0] * len(ids)
        for v, c in enumerate(of):
            group[c] |= 1 << v
        for (c, p), (d, q) in combinations(enumerate(ids), 2):
            if interval_distance(p, q) >= b + 1:
                apart[c] |= group[d]
                apart[d] |= group[c]
        same.append([group[c] for c in of])
        far.append([apart[c] for c in of])
    return [s & f for s, f in zip(same[1], far[0])], [s & f for s, f in zip(same[0], far[1])]


def find_blocking_pairs(rects: Iterable[Rectangle], b: int) -> tuple[BlockingPair, ...]:
    """All pairs with equal J and d(I1,I2) >= b+1, or equal I and d(J1,J2) >= b+1.

    Read off ``blocking_rows`` in sorted-rectangle order, (x, y) with x < y;
    distinct rectangles never share both projections, so a pair has one kind.
    """
    # the dataclass order as a plain tuple, without a method call per comparison
    rs = sorted(rects, key=lambda r: (r.i.n, r.i.start, r.i.length, r.j.n, r.j.start, r.j.length))
    j_rows, i_rows = blocking_rows(rs, b)
    return tuple(BlockingPair(J_BASE, r, rs[y], r.j) if j_rows[x] >> y & 1
                 else BlockingPair(I_BASE, r, rs[y], r.i)
                 for x, r in enumerate(rs) for y in iter_bits((j_rows[x] | i_rows[x]) & -2 << x))


@dataclass(frozen=True)
class CyclicPermutation:
    """Circular arrangement of Z_n, canonicalized by pinning element 0 first."""

    n: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.order) != self.n or sorted(self.order) != list(range(self.n)):
            raise ValueError("order must arrange 0..n-1")
        if self.n > 0 and self.order[0] != 0:
            raise ValueError("canonical rotation pins element 0 at position 0")

    @cached_property
    def position_of(self) -> dict[int, int]:
        """Element -> position on the cycle, built once per permutation."""
        return {e: i for i, e in enumerate(self.order)}


def canonical_permutations(n: int) -> Iterator[CyclicPermutation]:
    """All (n-1)! canonical cyclic permutations of Z_n; one empty one for n = 0."""
    if n == 0:
        yield CyclicPermutation(0, ())
        return
    for rest in permutations(range(1, n)):
        yield CyclicPermutation(n, (0,) + rest)


def _consecutive_interval(positions: list[int], n: int) -> Interval | None:
    """The interval covering ``positions`` on Z_n when they are consecutive, else None.

    A position s starts a run when s-1 is not a position; distinct positions
    short of the whole cycle are consecutive exactly when one run starts.
    """
    k = len(positions)
    if n == 0:
        return Interval(0, 0, 0)
    if k == 0:
        return None
    if k == n:
        return Interval(n, 0, n)
    pos = set(positions)
    starts = [s for s in positions if (s - 1) % n not in pos]
    return Interval(n, starts[0], k) if len(starts) == 1 else None


def set_to_rectangle(u: Universe, mask: int, c1: CyclicPermutation,
                     c2: CyclicPermutation) -> Rectangle | None:
    """The rectangle a member set forms under a permutation pair, if any.

    Present exactly when the positions of the set inside each part's
    arrangement are consecutive on the cycle.  An empty part is consecutive
    only for the degenerate modulus-0 axis of a one-part universe.
    """
    if c1.n != u.n1 or c2.n != u.n2:
        raise ValueError("permutation sizes must match the universe parts")
    pos1 = c1.position_of
    pos2 = c2.position_of
    p1 = [pos1[e] for e in iter_bits(mask & u.x1_mask)]
    p2 = [pos2[e - u.n1] for e in iter_bits(mask & u.x2_mask)]
    i = _consecutive_interval(p1, u.n1)
    j = _consecutive_interval(p2, u.n2)
    if i is None or j is None:
        return None
    return Rectangle(i, j)
