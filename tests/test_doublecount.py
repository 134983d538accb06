import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.cyclic import (
    Interval,
    _consecutive_interval,
    Rectangle,
    all_intervals,
    canonical_permutations,
    proj_intersecting,
    set_to_rectangle,
)
from ekrlab.doublecount import (
    DoubleCountResult,
    _run_bitsets,
    double_count_check,
    enumerate_rectangle_pair_count,
    rectangle_pair_count,
    weighted_sums,
)
from ekrlab.families import (
    Family,
    Profile,
    Universe,
    candidate_sets,
    enumerate_profile_sets,
    mask_of,
    profile_of,
    star_family,
)
from ekrlab.verifiers import verify_check


def reference_double_count(f: Family) -> DoubleCountResult:
    """The identity by one full rectangle test per (permutation pair, member)."""
    u = f.universe

    def weight(m):  # s(F) = C(n1,k) * C(n2,l) / (n1! * n2!) for F of profile (k, l)
        k, l = profile_of(u, m)
        return Fraction(comb(u.n1, k) * comb(u.n2, l), factorial(u.n1) * factorial(u.n2))

    weights = {m: weight(m) for m in f.sets}
    by_member = sum(
        (Fraction(rectangle_pair_count(u, m)) * weights[m] for m in f.sets),
        start=Fraction(0),
    )
    per_pair = []
    for c1 in canonical_permutations(u.n1):
        for c2 in canonical_permutations(u.n2):
            term = Fraction(0)
            for m in f.sets:
                if set_to_rectangle(u, m, c1, c2) is not None:
                    term += weights[m]
            per_pair.append(term)
    return DoubleCountResult(len(f), by_member, sum(per_pair, start=Fraction(0)),
                             tuple(per_pair))


def interior_profiles(u: Universe) -> list[tuple[int, int]]:
    ls = [0] if u.n2 == 0 else range(1, u.n2)
    return [(k, l) for k in range(1, u.n1) for l in ls]


def result_digest(results) -> str:
    text = "\n".join(
        f"{r.size} {r.by_member} {r.by_pair} " + ",".join(map(str, r.per_pair_terms))
        for r in results)
    return hashlib.sha256(text.encode()).hexdigest()


def benchmark_style_families(seed: int) -> list[Family]:
    """24 families at (5,5), each 20 random (2,2)-sets and 5 random (1,1)-sets."""
    u = Universe(5, 5)
    classes = {p: enumerate_profile_sets(u, Profile(*p)) for p in ((2, 2), (1, 1))}
    rng = random.Random(seed)
    fams = []
    for _ in range(24):
        sets = rng.sample(classes[(2, 2)], 20) + rng.sample(classes[(1, 1)], 5)
        fams.append(Family(u, tuple(sets)))
    return fams


def seeded_family(u: Universe, seed: int, size: int) -> Family:
    pool = candidate_sets(u, interior_profiles(u))
    return Family(u, tuple(random.Random(seed).sample(pool, size)))


def run_bitsets_reference(n: int, parts: list[list[int]]) -> list[int]:
    """Per canonical permutation, the parts consecutive under it, one interval test each."""
    out = []
    for c in canonical_permutations(n):
        pos = c.position_of
        bits = 0
        for i, part in enumerate(parts):
            if _consecutive_interval([pos[e] for e in part], n) is not None:
                bits |= 1 << i
        out.append(bits)
    return out


@pytest.mark.parametrize("n", range(7))
def test_run_bitsets_match_interval_tests(n):
    rng = random.Random(n)
    special = [[], list(range(n))] + [[e] for e in range(n)]
    for _ in range(40):
        parts = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 12))]
        parts += rng.sample(special, rng.randint(0, len(special)))
        parts += rng.sample(parts, rng.randint(0, len(parts)))  # duplicate parts
        rng.shuffle(parts)
        assert _run_bitsets(n, [mask_of(p) for p in parts]) == run_bitsets_reference(n, parts)


class TestPairCounts:
    def test_examples(self):
        assert rectangle_pair_count(Universe(3, 3), mask_of([0, 1, 3])) == 4
        assert enumerate_rectangle_pair_count(Universe(3, 3), mask_of([0, 1, 3])) == 4
        u43 = Universe(4, 3)
        assert rectangle_pair_count(u43, mask_of([0, 1, 4])) == 8
        assert enumerate_rectangle_pair_count(u43, mask_of([0, 1, 4])) == 8

    def test_full_parts_match_enumeration(self):
        u = Universe(3, 3)
        full = mask_of(range(6))
        assert rectangle_pair_count(u, full) == enumerate_rectangle_pair_count(u, full) == 4

    def test_closed_form_equals_enumeration_small_grid(self):
        for n1 in range(1, 5):
            for n2 in range(0, 5):
                u = Universe(n1, n2)
                for k in range(1, n1 + 1):
                    for l in range(1 if n2 else 0, n2 + 1):
                        mask = mask_of(list(range(k)) + list(range(n1, n1 + l)))
                        assert rectangle_pair_count(u, mask) == \
                            enumerate_rectangle_pair_count(u, mask), (n1, n2, k, l)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            enumerate_rectangle_pair_count(Universe(7, 2), 1)


class TestDoubleCount:
    def test_singleton(self):
        f = Family.from_lists(Universe(3, 3), [[0, 3]])
        res = double_count_check(f)
        assert res.exact and res.by_member == 1 and res.by_pair == 1

    def test_star(self):
        f = star_family(Universe(3, 3), [(1, 1)], 0)
        res = double_count_check(f)
        assert res.exact and res.by_pair == 3
        assert len(res.per_pair_terms) == 4
        assert sum(res.per_pair_terms) == 3

    def test_seeded_random_families(self):
        u = Universe(4, 4)
        pool = candidate_sets(u, [(1, 1), (2, 1)])
        rng = random.Random(42)
        for _ in range(20):
            sets = rng.sample(pool, rng.randint(1, 8))
            res = double_count_check(Family(u, tuple(sorted(sets))))
            assert res.exact

    def test_one_part_family(self):
        u = Universe(4, 0)
        f = Family.from_lists(u, [[0, 1], [1, 2], [0, 2]])
        assert double_count_check(f).exact

    def test_full_part_profiles_rejected(self):
        f = Family.from_lists(Universe(3, 3), [[0, 1, 2, 3]])
        with pytest.raises(ValueError, match="full"):
            double_count_check(f)

    def test_size_cap(self):
        f = Family.from_lists(Universe(7, 0), [[0, 1]])
        with pytest.raises(ValueError):
            double_count_check(f)


class TestDoubleCountAgainstReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_to_full_rectangle_tests(self, data):
        n1 = data.draw(st.integers(1, 5), label="n1")
        n2 = data.draw(st.integers(0, 5), label="n2")
        u = Universe(n1, n2)
        profiles = interior_profiles(u)
        sets = []
        if profiles:
            chosen = data.draw(st.lists(st.sampled_from(profiles), min_size=1,
                                        max_size=len(profiles), unique=True), label="profiles")
            pool = candidate_sets(u, chosen)
            sets = data.draw(st.lists(st.sampled_from(pool), max_size=min(len(pool), 30),
                                      unique=True), label="sets")
        f = Family(u, tuple(sets))
        assert double_count_check(f) == reference_double_count(f)

    @pytest.mark.parametrize("n1", [2, 3, 4, 5])
    def test_one_part_universe(self, n1):
        u = Universe(n1, 0)
        f = seeded_family(u, n1, len(candidate_sets(u, interior_profiles(u))) // 2 + 1)
        res = double_count_check(f)
        assert res == reference_double_count(f)
        assert res.exact and len(res.per_pair_terms) == len(list(canonical_permutations(n1)))

    def test_distinct_profiles_of_equal_weight(self):
        u = Universe(3, 3)  # C(3,1) * C(3,2) = C(3,2) * C(3,1): one weight class
        f = Family(u, tuple(candidate_sets(u, [(1, 2), (2, 1)])))
        res = double_count_check(f)
        assert res == reference_double_count(f)
        assert res.exact and res.size == 18

    def test_empty_family(self):
        f = Family(Universe(4, 3), ())
        res = double_count_check(f)
        assert res == reference_double_count(f)
        assert res.exact and res.per_pair_terms == (Fraction(0),) * 12

    # sha256 over size, by_member, by_pair and every per-pair term, recorded
    # with one full rectangle test per (permutation pair, member)
    PINNED = {
        1: "b0eb6ed617c1668c370420284d2d3edf627214b37a7231c7e019b1a4b664546e",
        2: "f2e404099a4bf06524a7914ccbccf6a9cb2f5db832503034d74d024f23d84771",
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pinned_benchmark_style_families(self, seed):
        results = [double_count_check(f) for f in benchmark_style_families(seed)]
        assert all(r.exact and r.size == 25 for r in results)
        assert result_digest(results) == self.PINNED[seed]


class TestDoubleCountAtCap:
    @pytest.mark.parametrize("n1,n2,size", [(6, 6, 40), (6, 5, 30), (6, 0, 12)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_at_enumeration_cap(self, n1, n2, size, seed):
        u = Universe(n1, n2)
        res = double_count_check(seeded_family(u, seed, size))
        pairs = len(list(canonical_permutations(n1))) * len(list(canonical_permutations(n2)))
        assert res.exact and res.size == size
        assert len(res.per_pair_terms) == pairs
        assert sum(res.per_pair_terms) == res.by_pair == size

    def test_equal_to_full_rectangle_tests_at_cap(self):
        f = seeded_family(Universe(6, 6), 3, 2)
        assert double_count_check(f) == reference_double_count(f)


def reference_weighted_sides(sizes, lambdas, n1, n2) -> tuple[Fraction, Fraction]:
    """Both sides of the weighted-sum bound summed as Fractions, term by term."""
    lhs = sum((lambdas[s] * size for s, size in sizes.items()), start=Fraction(0))
    sum_l = sum((lambdas[(k, l)] * l for (k, l) in sizes), start=Fraction(0))
    sum_k = sum((lambdas[(k, l)] * k for (k, l) in sizes), start=Fraction(0))
    return lhs, max(n1 * sum_l, n2 * sum_k)


def random_proj_family(rng, space, tries) -> list[Rectangle]:
    """A random proj-intersecting family grown from a random sample of the space."""
    rects = []
    for cand in rng.sample(space, tries):
        if all(cand.i.overlaps(r.i) or cand.j.overlaps(r.j) for r in rects):
            rects.append(cand)
    return rects


def class_sizes(rects) -> Counter:
    return Counter(r.shape for r in rects)


class TestWeightedSum:
    @pytest.mark.parametrize("n,b,shapes", [
        (10, 1, [(1, 1)]),
        (37, 2, [(1, 1), (2, 1), (2, 2)]),
    ])
    def test_sides_match_fraction_sums(self, n, b, shapes):
        # integer numerators over a common denominator give the same reduced sides
        assert 9 * b * b < n and all(max(s) <= b for s in shapes)  # the inequality's regime
        rng = random.Random(n)
        space = [Rectangle(i, j) for k, l in shapes
                 for i in all_intervals(n, k) for j in all_intervals(n, l)]
        all_shapes = 0
        for _ in range(200):
            sizes = class_sizes(random_proj_family(rng, space, 40))
            lambdas = {s: Fraction(rng.randint(1, 30), rng.randint(1, 30)) for s in shapes}
            want = reference_weighted_sides(sizes, lambdas, n, n)
            assert weighted_sums(sizes, lambdas, n, n) == want
            all_shapes += len(sizes) == len(shapes)
        assert all_shapes >= 40  # the multi-shape case is exercised, not only its classes

    def test_integer_weights_give_the_fraction_verdict(self):
        # check c3 passes the weights a_s / q_s scaled by prod q_s, as plain ints
        rng, shapes, verdicts = random.Random(5), [(1, 1), (2, 1), (2, 2)], Counter()
        for _ in range(500):
            sizes = {s: rng.randint(0, 40) for s in shapes if rng.random() < 0.8}
            pairs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in shapes]
            scale = prod(q for _, q in pairs)
            fractions = {s: Fraction(a, q) for s, (a, q) in zip(shapes, pairs)}
            integers = {s: a * (scale // q) for s, (a, q) in zip(shapes, pairs)}
            lhs, rhs = weighted_sums(sizes, integers, 10, 10)
            assert type(lhs) is int and type(rhs) is int
            f_lhs, f_rhs = weighted_sums(sizes, fractions, 10, 10)
            assert (lhs, rhs) == (f_lhs * scale, f_rhs * scale)
            assert (lhs <= rhs) == (f_lhs <= f_rhs)
            verdicts[lhs <= rhs] += 1
        assert verdicts[True] and verdicts[False]

    def test_full_row_of_unit_rectangles(self):
        rects = [Rectangle(Interval(10, s, 1), Interval(10, 0, 1)) for s in range(10)]
        assert weighted_sums(class_sizes(rects), {(1, 1): Fraction(1)}, 10, 10) == (10, 10)

    def test_empty_family(self):
        assert weighted_sums(Counter(), {}, 10, 10) == (0, 0)

    def test_c3_rejects_a_ground_below_9b2(self):
        # weighted_sums checks no hypothesis: c3's parameter check is the guard
        with pytest.raises(ValueError, match=r"9b\^2 < n1"):
            verify_check("c3", {"n1": 9, "n2": 10, "b": 1, "shapes": [[1, 1]]})

    def test_sampled_families_hold(self):
        rng = random.Random(7)
        space = [Rectangle(i, j) for i in all_intervals(10, 1) for j in all_intervals(10, 1)]
        checked = 0
        for _ in range(500):
            seedr = rng.choice(space)
            rects = [seedr]
            for cand in rng.sample(space, 30):
                if cand not in rects and all(
                        cand.i.overlaps(r.i) or cand.j.overlaps(r.j) for r in rects):
                    rects.append(cand)
            assert all(proj_intersecting(r1, r2) for r1, r2 in combinations(rects, 2))
            lambdas = {(1, 1): Fraction(rng.randint(1, 9), rng.randint(1, 9))}
            lhs, rhs = weighted_sums(class_sizes(rects), lambdas, 10, 10)
            assert lhs <= rhs
            checked += 1
        assert checked == 500
