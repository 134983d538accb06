"""Exact double counting over pairs of cyclic permutations.

Each member set F of profile (k, l) carries the rational weight

    s(F) = C(n1,k) * C(n2,l) / (n1! * n2!)

and forms a rectangle in exactly k!(n1-k)! * l!(n2-l)! of the
(n1-1)!(n2-1)! canonical permutation pairs (full or empty parts always
form one, so their axis contributes the whole (n-1)! instead).  Summing
s(F) over all (pair, rectangle-forming member) incidences therefore
equals |F| exactly, whether grouped by member or by pair.  A member is a
rectangle under (c1, c2) exactly when its X1 part is consecutive under c1
and its X2 part under c2.  The by-pair side therefore looks up each
permutation's consecutive-run masks (a table built once per n) among the
members' part masks, keeps one member bitset per permutation and per
weight class, and counts a pair's members with ANDs, a row of pairs at a
time (per c1 and weight class, one pass over the c2 bitsets).
``weighted_sums`` gives both sides of the 9b^2 regime's weighted-sum
inequality from the rectangle class sizes, the bound check c3 tests.
Everything here is exact rational arithmetic; no tolerances anywhere.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm

from .cyclic import canonical_permutations, set_to_rectangle
from .families import Family, Profile, Universe, profile_of
from .bounds import binomial

ENUMERATION_CAP = 6  # (n-1)! pairs per axis stay tiny up to here


def _weight_numerator(u: Universe, p: tuple[int, int]) -> int:
    """C(n1,k) * C(n2,l): the weight of a member with profile p, times n1! * n2!."""
    k, l = Profile(*p)
    return binomial(u.n1, k) * binomial(u.n2, l)


def _axis_pair_count(n: int, k: int) -> int:
    # interior runs: k!(n-k)!; a full (or empty-axis) part is consecutive everywhere
    if n == 0:
        return 1
    if k == n:
        return factorial(n - 1)
    if k == 0:
        return 0
    return factorial(k) * factorial(n - k)


def rectangle_pair_count(u: Universe, mask: int) -> int:
    """Closed-form number of canonical permutation pairs where the set is a rectangle."""
    k, l = profile_of(u, mask)
    return _axis_pair_count(u.n1, k) * _axis_pair_count(u.n2, l)


def enumerate_rectangle_pair_count(u: Universe, mask: int) -> int:
    """The same count by direct enumeration over all canonical permutation pairs."""
    require_countable(u)
    count = 0
    for c1 in canonical_permutations(u.n1):
        for c2 in canonical_permutations(u.n2):
            if set_to_rectangle(u, mask, c1, c2) is not None:
                count += 1
    return count


@dataclass(frozen=True)
class DoubleCountResult:
    size: int
    by_member: Fraction
    by_pair: Fraction
    per_pair_terms: tuple[Fraction, ...]

    @property
    def exact(self) -> bool:
        return self.by_member == self.size and self.by_pair == self.size

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "by_member": str(self.by_member),
            "by_pair": str(self.by_pair),
            "exact": self.exact,
        }


@cache
def _run_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """Per canonical permutation of Z_n, the distinct masks of its consecutive runs.

    Runs of length 1..n-1 at every start, plus the whole cycle (empty when n = 0).
    """
    out = []
    for c in canonical_permutations(n):
        bits = [1 << e for e in c.order * 2]
        runs = [(1 << n) - 1]
        for s in range(n):
            mask = 0
            for b in bits[s:s + n - 1]:
                mask |= b
                runs.append(mask)
        out.append(tuple(runs))
    return tuple(out)


def _run_bitsets(n: int, parts: list[int]) -> list[int]:
    """Per canonical permutation of Z_n, the bitset of the part masks consecutive under it."""
    groups: dict[int, int] = {}  # part mask -> bitset of the parts with that mask
    for i, mask in enumerate(parts):
        groups[mask] = groups.get(mask, 0) | 1 << i
    # disjoint groups under distinct run masks: their sum is their union
    return [sum(groups.get(mask, 0) for mask in runs) for runs in _run_masks(n)]


def require_countable(u: Universe) -> None:
    """Refuse a universe with too many permutation pairs to enumerate, before any work."""
    if u.n1 > ENUMERATION_CAP or u.n2 > ENUMERATION_CAP:
        raise ValueError(f"double counting limited to parts of size <= {ENUMERATION_CAP}")


def double_count_check(f: Family) -> DoubleCountResult:
    """Evaluate the weighted incidence sum both ways and compare with |f|.

    Grouped by member it uses the closed-form pair count.  Grouped by pair
    it runs over every canonical permutation pair (c1 outer, c2 inner) and
    sums the weights of the members that form a rectangle there: those whose
    bit is set in c1's X1 run bitset, in c2's X2 run bitset and in their
    weight class.  Both groupings must equal |f| exactly.  Profiles must
    avoid full parts (k = n1 or l = n2 with the part non-empty), where the
    closed-form incidence count degenerates and the identity fails.
    """
    u = f.universe
    require_countable(u)
    profiles = [profile_of(u, m) for m in f.sets]
    for k, l in profiles:
        if (u.n1 > 0 and k in (0, u.n1)) or (u.n2 > 0 and l in (0, u.n2)):
            raise ValueError(
                f"profile ({k},{l}) has an empty or full part; the identity needs interior profiles"
            )

    # every weight shares the denominator n1! * n2!: sum integer numerators
    denom = factorial(u.n1) * factorial(u.n2)
    nums = [_weight_numerator(u, p) for p in profiles]
    by_member = Fraction(sum(_axis_pair_count(u.n1, k) * _axis_pair_count(u.n2, l) * w
                             for (k, l), w in zip(profiles, nums)), denom)

    classes: dict[int, int] = {}
    for i, w in enumerate(nums):
        classes[w] = classes.get(w, 0) | 1 << i
    runs1 = _run_bitsets(u.n1, [m & u.x1_mask for m in f.sets])
    runs2 = _run_bitsets(u.n2, [m >> u.n1 for m in f.sets])
    pair_nums = []
    for r1 in runs1:  # one row of pairs (r1 with every r2) per weight class
        row = [0] * len(runs2)
        for w, cls in classes.items():
            if members := r1 & cls:
                row = [t + w * (members & r2).bit_count() for t, r2 in zip(row, runs2)]
        pair_nums += row
    # a family has only a handful of distinct pair numerators: one Fraction each
    term = {t: Fraction(t, denom) for t in set(pair_nums)}
    per_pair = tuple(term[t] for t in pair_nums)
    return DoubleCountResult(len(f), by_member, Fraction(sum(pair_nums), denom), per_pair)


def weighted_sums(sizes: Mapping[tuple[int, int], int],
                  lambdas: dict[tuple[int, int], Fraction | int],
                  n1: int, n2: int) -> tuple[Fraction | int, Fraction | int]:
    """Both sides of sum_i lambda_i |R_i| <= max{n1 sum lambda_i l_i, n2 sum lambda_i k_i}.

    ``sizes`` is {shape (k_i, l_i): |R_i|}.  The inequality holds for proj-intersecting
    families with every side at most b, 9b^2 < n1 and 9b^2 < n2, and positive weights;
    nothing here checks them.  Check c3 meets all four by construction, with integer
    weights: when the common denominator is 1 the sides are plain ints.
    """
    denom = lcm(*(lambdas[s].denominator for s in sizes))  # integer sums, one Fraction per side
    num = {s: lambdas[s].numerator * (denom // lambdas[s].denominator) for s in sizes}
    lhs = sum(num[s] * size for s, size in sizes.items())
    rhs = max(n1 * sum(w * l for (k, l), w in num.items()),
              n2 * sum(w * k for (k, l), w in num.items()))
    return (lhs, rhs) if denom == 1 else (Fraction(lhs, denom), Fraction(rhs, denom))
