"""Partitioned ground sets and profile-constrained set families.

The ground set X = X1 ∪ X2 is encoded as bit positions: X1 occupies bits
0..n1-1 and X2 occupies bits n1..n1+n2-1.  A member set is a plain int
bitmask, so pairwise intersection is a single ``&``.  Setting n2 = 0 gives
the classical one-part setting; everything downstream runs through the
same code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

MAX_WIDTH = 64

X1 = "X1"
X2 = "X2"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements: Iterable[int]) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


@dataclass(frozen=True)
class Universe:
    """Two-part ground set with |X1| = n1 and |X2| = n2."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("part sizes must be non-negative")
        if self.n1 + self.n2 < 1:
            raise ValueError("universe must contain at least one element")

    def check_encodable(self) -> None:
        """Sets are bitmaps of width n1+n2; anything wider stays formula-only."""
        if self.size > MAX_WIDTH:
            raise ValueError(f"universe wider than {MAX_WIDTH} elements cannot hold sets")

    @property
    def size(self) -> int:
        return self.n1 + self.n2

    @property
    def x1_mask(self) -> int:
        return (1 << self.n1) - 1

    @property
    def x2_mask(self) -> int:
        return ((1 << self.size) - 1) & ~self.x1_mask

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @property
    def two_part(self) -> bool:
        return self.n1 > 0 and self.n2 > 0


class Profile(NamedTuple):
    """Prescribed member sizes (k in X1, l in X2)."""

    k: int
    l: int


def validate_profile(u: Universe, p: Profile) -> None:
    k, l = p
    if k < 0 or l < 0 or k > u.n1 or l > u.n2:
        raise ValueError(f"profile {p} out of range for universe ({u.n1},{u.n2})")
    if u.two_part and (k == 0 or l == 0):
        raise ValueError(f"profile {p} must be positive on both sides of a two-part universe")


def normalize_profiles(u: Universe, profiles: Iterable[tuple[int, int]]) -> tuple[Profile, ...]:
    """Validate, coerce and deduplicate a profile list, preserving order."""
    out: list[Profile] = []
    for raw in profiles:
        p = Profile(*raw)
        validate_profile(u, p)
        if p not in out:
            out.append(p)
    if not out:
        raise ValueError("profile list must be non-empty")
    return tuple(out)


def profile_ceiling(profiles: Iterable[tuple[int, int]]) -> int:
    """The largest prescribed part size b = max over all k_i and l_i."""
    return max(max(p) for p in profiles)


def profile_of(u: Universe, mask: int) -> Profile:
    return Profile((mask & u.x1_mask).bit_count(), (mask & u.x2_mask).bit_count())


@dataclass(frozen=True)
class Family:
    """A duplicate-free collection of member sets over one universe."""

    universe: Universe
    sets: tuple[int, ...]

    def __post_init__(self) -> None:
        self.universe.check_encodable()
        full = self.universe.full_mask
        seen = set()
        for m in self.sets:
            if m & ~full:
                raise ValueError("member set leaves the universe")
            if m in seen:
                raise ValueError("duplicate member set")
            seen.add(m)

    def __len__(self) -> int:
        return len(self.sets)

    def to_lists(self) -> list[list[int]]:
        return [list(iter_bits(m)) for m in self.sets]

    @classmethod
    def from_lists(cls, u: Universe, sets: Iterable[Iterable[int]]) -> "Family":
        masks = []
        for s in sets:
            s = list(s)
            for e in s:
                if type(e) is not int or not 0 <= e < u.size:
                    raise ValueError(f"element {e!r} is not an index of universe ({u.n1},{u.n2})")
            if len(set(s)) != len(s):
                raise ValueError(f"member set {s} lists an element twice")
            masks.append(mask_of(s))
        return cls(u, tuple(masks))


def sort_key(mask: int) -> tuple[int, ...]:
    """Canonical order for member sets: lexicographic on sorted elements."""
    return tuple(iter_bits(mask))


def is_intersecting(f: Family) -> bool:
    """True when every two members share an element (vacuous for |f| <= 1)."""
    sets = f.sets
    for i in range(len(sets)):
        si = sets[i]
        for j in range(i + 1, len(sets)):
            if not si & sets[j]:
                return False
    return True


def common_elements(f: Family) -> int:
    """Bitmask of elements contained in every member; full mask for an empty family."""
    out = f.universe.full_mask
    for m in f.sets:
        out &= m
    return out


def is_trivially_intersecting(f: Family) -> bool:
    """True when some element lies in every member (true for the empty family)."""
    if not f.sets:
        return True
    return common_elements(f) != 0


def trivial_witness(f: Family) -> int | None:
    """Smallest element shared by all members, or None (also None for an empty family)."""
    if not f.sets:
        return None
    c = common_elements(f)
    return next(iter_bits(c)) if c else None


def is_two_sided_intersecting(f: Family) -> bool:
    """True when some pair misses X1 and some pair misses X2.

    The two witness pairs may coincide or overlap.  A family with a common
    element can never qualify: the shared element blocks one of the sides.
    """
    u = f.universe
    if not u.two_part:
        raise ValueError("two-sided intersection needs a two-part universe")
    x1m, x2m = u.x1_mask, u.x2_mask
    miss1 = miss2 = False
    sets = f.sets
    for i in range(len(sets)):
        for j in range(i, len(sets)):
            inter = sets[i] & sets[j]
            if not inter & x1m:
                miss1 = True
            if not inter & x2m:
                miss2 = True
            if miss1 and miss2:
                return True
    return False


def enumerate_profile_sets(u: Universe, p: Profile) -> list[int]:
    """All sets with exactly p.k elements in X1 and p.l in X2, canonically ordered."""
    validate_profile(u, Profile(*p))
    u.check_encodable()
    k, l = p
    out = []
    for a in combinations(range(u.n1), k):
        am = mask_of(a)
        for b in combinations(range(u.n1, u.size), l):
            out.append(am | mask_of(b))
    return out


def candidate_sets(u: Universe, profiles: Iterable[tuple[int, int]]) -> list[int]:
    """Union of the profile classes, sorted in canonical order."""
    masks: set[int] = set()
    for p in normalize_profiles(u, profiles):
        masks.update(enumerate_profile_sets(u, p))
    return sorted(masks, key=sort_key)


def star_family(u: Universe, profiles: Iterable[tuple[int, int]], x: int) -> Family:
    """All profile-respecting sets through the fixed element x."""
    if not 0 <= x < u.size:
        raise ValueError(f"element {x} outside universe")
    bit = 1 << x
    return Family(u, tuple(m for m in candidate_sets(u, profiles) if m & bit))


def family_from_json(data) -> Family:
    """The family of a JSON object; a malformed one raises ValueError."""
    sets = data.get("sets") if isinstance(data, dict) else None
    if not (isinstance(sets, list) and all(isinstance(s, list) for s in sets)
            and all(type(data.get(key)) is int for key in ("n1", "n2"))):
        raise ValueError('a family needs integers "n1", "n2" and "sets", a list of element lists')
    return Family.from_lists(Universe(data["n1"], data["n2"]), sets)


def load_family(path: str) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_json(json.load(fh))
