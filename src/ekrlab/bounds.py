"""Exact closed-form extremal bounds for intersecting families.

All evaluators use arbitrary-precision integer arithmetic, so they are
valid for any parameters even though the search modules stay at desk
scale.
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from .families import X1, X2, Profile, Universe, normalize_profiles, profile_ceiling


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def star_size(u: Universe, profiles: Iterable[tuple[int, int]], side: str) -> int:
    """Number of profile-respecting sets through a fixed element of the given part."""
    ps = normalize_profiles(u, profiles)
    if side == X1:
        return sum(binomial(u.n1 - 1, k - 1) * binomial(u.n2, l) for k, l in ps)
    if side == X2:
        return sum(binomial(u.n1, k) * binomial(u.n2 - 1, l - 1) for k, l in ps)
    raise ValueError(f"unknown side {side!r}")


def star_bound(u: Universe, profiles: Iterable[tuple[int, int]]) -> int:
    """Size of the largest star: the better of the two fixed-element counts."""
    return max(star_size(u, profiles, X1), star_size(u, profiles, X2))


def frankl_bound(u: Universe, p: tuple[int, int]) -> int:
    """Single-profile star bound max{C(n1-1,k-1)C(n2,l), C(n1,k)C(n2-1,l-1)}."""
    return star_bound(u, [Profile(*p)])


def star_bound_proven(u: Universe, profiles: Iterable[tuple[int, int]]) -> bool:
    """Whether the parameters sit in the regime where the star bound is the exact maximum.

    Requires 9*b^2 <= n1 and 9*b^2 <= n2 for b the largest prescribed part size.
    Outside the regime the star bound is still a candidate value, just not a
    guarantee.
    """
    b = profile_ceiling(normalize_profiles(u, profiles))
    return 9 * b * b <= u.n1 and 9 * b * b <= u.n2


def ekr_bound(n: int, k: int) -> int:
    """One-part maximum C(n-1, k-1) for intersecting k-uniform families, 2k <= n."""
    _require_half(n, k)
    return binomial(n - 1, k - 1)


def hm_bound(n: int, k: int) -> int:
    """One-part maximum for intersecting but non-trivially intersecting families."""
    _require_half(n, k)
    return 1 + binomial(n - 1, k - 1) - binomial(n - k - 1, k - 1)


def cross_bound(n: int, k: int) -> int:
    """Maximum of |F| + |G| over non-empty cross-intersecting k-uniform pairs."""
    _require_half(n, k)
    return 1 + binomial(n, k) - binomial(n - k, k)


def nontrivial_bound(u: Universe, p: tuple[int, int]) -> int:
    """Product-type ceiling for two-part non-trivially intersecting families.

    The larger of the two one-sided constructions: a non-trivial extremal
    family in one part crossed with everything in the other.  ``hunt`` tests
    this value; it is not a proven maximum.  The two-part Hilton-Milner family
    H(x, T) (every (k, l)-set through x meeting a fixed (k, l)-set T with x
    not in T, plus T) beats it at k = l = 2, n1 = n2 = n for every n >= 5: 3n^2 - 10n + 10
    members against 3*C(n, 2).
    """
    k, l = p
    _require_half(u.n1, k)
    _require_half(u.n2, l)
    return max(_nontrivial_term(u.n1, k, u.n2, l), _nontrivial_term(u.n2, l, u.n1, k))


def two_sided_bound(u: Universe, p: tuple[int, int]) -> int:
    """Product-type ceiling for two-part two-sided intersecting families.

    The larger of the two anchored two-step constructions.  ``hunt`` tests
    this value; it is not a proven maximum.  The two-part Hilton-Milner family
    H(x, T) (see ``nontrivial_bound``) is two-sided and beats it at k = l = 2,
    n1 = n2 = n for every n >= 5: 3n^2 - 10n + 10 members against n^2 + n - 2.
    """
    k, l = p
    _require_half(u.n1, k)
    _require_half(u.n2, l)
    return max(_two_sided_term(u.n2, l, u.n1, k), _two_sided_term(u.n1, k, u.n2, l))


def _nontrivial_term(n: int, k: int, m: int, l: int) -> int:
    """A Hilton-Milner family of k-sets of the n-part crossed with every l-set of the m-part."""
    return hm_bound(n, k) * binomial(m, l)


def _two_sided_term(n: int, k: int, m: int, l: int) -> int:
    """The two-step construction anchored in the n-part (k-sets) with free m-part (l-sets)."""
    _require_half(n, k)
    _require_half(m, l)
    return (binomial(n - 1, k - 1) - binomial(n - k - 1, k - 1)) * binomial(m, l) \
        + 1 + binomial(m, l) - binomial(m - l, l)


def _require_half(n: int, k: int) -> None:
    if k < 1 or 2 * k > n:
        raise ValueError(f"needs 1 <= k and 2k <= n, got n={n}, k={k}")
