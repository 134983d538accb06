"""Cyclic intervals, rectangles, and blocking pairs.

Geometry for the double-counting machinery: intervals live on a cycle Z_n,
rectangles are direct products of one interval per axis in Z_n1 x Z_n2.
A modulus of 0 denotes the empty axis of a one-part ground set; its only
interval is the degenerate empty one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
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

    def elements(self) -> tuple[int, ...]:
        return tuple(sorted((self.start + i) % self.n for i in range(self.length)))

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


def is_proj_intersecting_family(rects: Iterable[Rectangle]) -> bool:
    rs = list(rects)
    for a in range(len(rs)):
        for b in range(a + 1, len(rs)):
            if not proj_intersecting(rs[a], rs[b]):
                return False
    return True


@dataclass(frozen=True)
class RectFamily:
    """Duplicate-free rectangles over a fixed axis pair (n1, n2)."""

    n1: int
    n2: int
    rects: tuple[Rectangle, ...]

    def __post_init__(self) -> None:
        seen = set()
        for r in self.rects:
            if r.i.n != self.n1 or r.j.n != self.n2:
                raise ValueError("rectangle axes do not match the family")
            if r in seen:
                raise ValueError("duplicate rectangle")
            seen.add(r)

    def __len__(self) -> int:
        return len(self.rects)

    def by_shape(self) -> dict[tuple[int, int], tuple[Rectangle, ...]]:
        out: dict[tuple[int, int], list[Rectangle]] = {}
        for r in self.rects:
            out.setdefault(r.shape, []).append(r)
        return {s: tuple(v) for s, v in sorted(out.items())}

    def to_json(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "rects": [[r.i.start, r.i.length, r.j.start, r.j.length] for r in self.rects],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RectFamily":
        n1, n2 = int(data["n1"]), int(data["n2"])
        rects = tuple(
            Rectangle(Interval(n1, a, b), Interval(n2, c, d)) for a, b, c, d in data["rects"]
        )
        return cls(n1, n2, rects)


@dataclass(frozen=True)
class Projections:
    """Distinct axis projections with multiplicities; mu maps interval -> count."""

    i_intervals: tuple[Interval, ...]
    j_intervals: tuple[Interval, ...]
    mu_i: dict[Interval, int] = field(hash=False)
    mu_j: dict[Interval, int] = field(hash=False)


def projections(family: RectFamily) -> Projections:
    mu_i: dict[Interval, int] = {}
    mu_j: dict[Interval, int] = {}
    for r in family.rects:
        mu_i[r.i] = mu_i.get(r.i, 0) + 1
        mu_j[r.j] = mu_j.get(r.j, 0) + 1
    return Projections(
        i_intervals=tuple(sorted(mu_i)),
        j_intervals=tuple(sorted(mu_j)),
        mu_i=mu_i,
        mu_j=mu_j,
    )


J_BASE = "j_base"  # shared J-projection, I-projections far apart
I_BASE = "i_base"  # shared I-projection, J-projections far apart


@dataclass(frozen=True)
class BlockingPair:
    """Two rectangles sharing one projection (the base) and far apart on the other axis."""

    kind: str
    first: Rectangle
    second: Rectangle
    base: Interval


@dataclass(frozen=True)
class BlockingPairScan:
    pairs: tuple[BlockingPair, ...]

    def distinct_bases(self, kind: str) -> tuple[Interval, ...]:
        return tuple(sorted({p.base for p in self.pairs if p.kind == kind}))

    @property
    def kinds_present(self) -> set[str]:
        return {p.kind for p in self.pairs}


def find_blocking_pairs(rects: Iterable[Rectangle], b: int) -> BlockingPairScan:
    """All pairs with equal J and d(I1,I2) >= b+1, or equal I and d(J1,J2) >= b+1."""
    if b < 1:
        raise ValueError("b must be at least 1")
    rs = sorted(rects)
    pairs = []
    for x in range(len(rs)):
        for y in range(x + 1, len(rs)):
            r1, r2 = rs[x], rs[y]
            if r1.j == r2.j and interval_distance(r1.i, r2.i) >= b + 1:
                pairs.append(BlockingPair(J_BASE, r1, r2, r1.j))
            if r1.i == r2.i and interval_distance(r1.j, r2.j) >= b + 1:
                pairs.append(BlockingPair(I_BASE, r1, r2, r1.i))
    return BlockingPairScan(tuple(pairs))


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

    def position_of(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.order)}


def canonical_permutations(n: int) -> Iterator[CyclicPermutation]:
    """All (n-1)! canonical cyclic permutations of Z_n; one empty one for n = 0."""
    if n == 0:
        yield CyclicPermutation(0, ())
        return
    for rest in permutations(range(1, n)):
        yield CyclicPermutation(n, (0,) + rest)


def permutation_pair_count(n1: int, n2: int) -> int:
    """Number of canonical permutation pairs, (n1-1)!(n2-1)! with (n-1)! := 1 for n <= 1."""
    def half(n: int) -> int:
        out = 1
        for i in range(2, n):
            out *= i
        return out
    return half(n1) * half(n2)


def _consecutive_interval(positions: list[int], n: int) -> Interval | None:
    """The interval covering ``positions`` on Z_n when they are consecutive, else None."""
    k = len(positions)
    if n == 0:
        return Interval(0, 0, 0)
    if k == 0:
        return None
    if k == n:
        return Interval(n, 0, n)
    pos = set(positions)
    for s in positions:
        if all((s + i) % n in pos for i in range(k)):
            return Interval(n, s, k)
    return None


def set_to_rectangle(u: Universe, mask: int, c1: CyclicPermutation,
                     c2: CyclicPermutation) -> Rectangle | None:
    """The rectangle a member set forms under a permutation pair, if any.

    Present exactly when the positions of the set inside each part's
    arrangement are consecutive on the cycle.  An empty part is consecutive
    only for the degenerate modulus-0 axis of a one-part universe.
    """
    if c1.n != u.n1 or c2.n != u.n2:
        raise ValueError("permutation sizes must match the universe parts")
    pos1 = c1.position_of()
    pos2 = c2.position_of()
    p1 = [pos1[e] for e in iter_bits(mask & u.x1_mask)]
    p2 = [pos2[e - u.n1] for e in iter_bits(mask & u.x2_mask)]
    i = _consecutive_interval(p1, u.n1)
    j = _consecutive_interval(p2, u.n2)
    if i is None or j is None:
        return None
    return Rectangle(i, j)
