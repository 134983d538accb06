import random

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.cyclic import (
    I_BASE,
    J_BASE,
    CyclicPermutation,
    Interval,
    RectFamily,
    Rectangle,
    all_intervals,
    canonical_permutations,
    find_blocking_pairs,
    interval_distance,
    is_proj_intersecting_family,
    permutation_pair_count,
    point_distance,
    proj_intersecting,
    projections,
    set_to_rectangle,
)
from ekrlab.families import Universe, mask_of


class TestPointDistance:
    def test_values(self):
        assert point_distance(0, 4, 5) == 1
        assert point_distance(2, 2, 7) == 0
        assert point_distance(1, 4, 8) == 3

    @given(n=st.integers(1, 12), u=st.integers(0, 11), v=st.integers(0, 11), w=st.integers(0, 11))
    @settings(max_examples=200, deadline=None)
    def test_metric(self, n, u, v, w):
        u, v, w = u % n, v % n, w % n
        assert point_distance(u, v, n) <= n // 2
        assert point_distance(u, v, n) == point_distance(v, u, n)
        assert (point_distance(u, v, n) == 0) == (u == v)
        assert point_distance(u, w, n) <= point_distance(u, v, n) + point_distance(v, w, n)


class TestInterval:
    def test_elements_wrap(self):
        assert Interval(6, 4, 3).elements() == (0, 4, 5)

    def test_full_cycle_canonical(self):
        assert Interval(5, 3, 5) == Interval(5, 0, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(5, 0, 0)
        with pytest.raises(ValueError):
            Interval(5, 5, 1)
        with pytest.raises(ValueError):
            Interval(0, 0, 1)

    def test_distance_examples(self):
        assert interval_distance(Interval(6, 0, 2), Interval(6, 3, 1)) == 2
        assert interval_distance(Interval(6, 0, 2), Interval(6, 1, 2)) == 0
        assert interval_distance(Interval(6, 0, 1), Interval(6, 5, 1)) == 1

    def test_distance_modulus_mismatch(self):
        with pytest.raises(ValueError):
            interval_distance(Interval(5, 0, 1), Interval(6, 0, 1))

    @given(n=st.integers(2, 12), s1=st.integers(0, 11), l1=st.integers(1, 12),
           s2=st.integers(0, 11), l2=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_zero_distance_iff_overlap(self, n, s1, l1, s2, l2):
        if l1 > n or l2 > n:
            return
        i1, i2 = Interval(n, s1 % n, l1), Interval(n, s2 % n, l2)
        assert (interval_distance(i1, i2) == 0) == i1.overlaps(i2)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_closed_forms_match_element_scans(self, data):
        n = data.draw(st.integers(1, 12))
        i1, i2 = (Interval(n, data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, n)))
                  for _ in range(2))
        scan_overlap = any(i2.contains(x) for x in i1.elements())
        scan_distance = min(point_distance(a, b, n) for a in i1.elements() for b in i2.elements())
        assert i1.overlaps(i2) == i2.overlaps(i1) == scan_overlap
        assert interval_distance(i1, i2) == interval_distance(i2, i1) == scan_distance

    def test_closed_forms_full_cycle_and_empty_axis(self):
        full = Interval(7, 0, 7)
        for other in all_intervals(7, 1) + all_intervals(7, 6) + [full]:
            assert full.overlaps(other) and other.overlaps(full)
            assert interval_distance(full, other) == 0
        empty = Interval(0, 0, 0)
        assert not empty.overlaps(empty)
        with pytest.raises(ValueError, match="empty axis"):
            interval_distance(empty, empty)
        with pytest.raises(ValueError, match="modulus"):
            Interval(5, 0, 2).overlaps(Interval(6, 0, 2))

    def test_all_intervals(self):
        assert len(all_intervals(7, 3)) == 7
        assert len(all_intervals(7, 7)) == 1


class TestRectangles:
    def test_proj_intersecting(self):
        r1 = Rectangle(Interval(5, 0, 2), Interval(5, 0, 1))
        r2 = Rectangle(Interval(5, 1, 2), Interval(5, 3, 1))
        assert proj_intersecting(r1, r2)  # I overlap at 1
        r3 = Rectangle(Interval(5, 2, 1), Interval(5, 2, 1))
        r4 = Rectangle(Interval(5, 0, 1), Interval(5, 0, 1))
        assert not proj_intersecting(r3, r4)
        assert is_proj_intersecting_family([r1])
        assert is_proj_intersecting_family([])

    def test_projections_and_multiplicity(self):
        fam = RectFamily(5, 5, (
            Rectangle(Interval(5, 0, 2), Interval(5, 2, 1)),
            Rectangle(Interval(5, 0, 2), Interval(5, 3, 1)),
        ))
        proj = projections(fam)
        assert len(proj.i_intervals) == 1
        assert len(proj.j_intervals) == 2
        assert proj.mu_j[Interval(5, 2, 1)] == 1
        assert sum(proj.mu_j.values()) == len(fam) == sum(proj.mu_i.values())

    def test_projection_product_inequality(self):
        rng = random.Random(11)
        space = [Rectangle(i, j) for i in all_intervals(6, 2) for j in all_intervals(6, 1)]
        for _ in range(100):
            rects = rng.sample(space, rng.randint(1, 8))
            fam = RectFamily(6, 6, tuple(sorted(set(rects))))
            proj = projections(fam)
            assert len(fam) <= len(proj.i_intervals) * len(proj.j_intervals)

    def test_duplicate_rejected(self):
        r = Rectangle(Interval(5, 0, 1), Interval(5, 0, 1))
        with pytest.raises(ValueError):
            RectFamily(5, 5, (r, r))

    def test_json_round_trip(self):
        fam = RectFamily(5, 6, (Rectangle(Interval(5, 1, 2), Interval(6, 4, 3)),))
        assert RectFamily.from_json(fam.to_json()) == fam


class TestBlockingPairs:
    def test_example_pair(self):
        r1 = Rectangle(Interval(12, 0, 2), Interval(12, 0, 2))
        r2 = Rectangle(Interval(12, 4, 2), Interval(12, 0, 2))
        scan = find_blocking_pairs([r1, r2], 2)
        assert len(scan.pairs) == 1
        pair = scan.pairs[0]
        assert pair.kind == J_BASE
        assert pair.base == Interval(12, 0, 2)
        assert find_blocking_pairs([r1, r2], 3).pairs == ()
        assert find_blocking_pairs([r1], 2).pairs == ()

    def test_distinct_base_counts(self):
        rects = [
            Rectangle(Interval(10, 0, 1), Interval(10, 0, 1)),
            Rectangle(Interval(10, 4, 1), Interval(10, 0, 1)),
            Rectangle(Interval(10, 0, 1), Interval(10, 4, 1)),
        ]
        scan = find_blocking_pairs(rects, 1)
        assert len(scan.distinct_bases(J_BASE)) == 1
        assert len(scan.distinct_bases(I_BASE)) == 1
        assert scan.kinds_present == {J_BASE, I_BASE}

    def test_reported_pairs_reverified(self):
        rng = random.Random(7)
        space = [Rectangle(i, j) for i in all_intervals(8, 2) for j in all_intervals(8, 2)]
        for _ in range(50):
            rects = sorted(set(rng.sample(space, rng.randint(2, 10))))
            for b in (1, 2):
                for pair in find_blocking_pairs(rects, b).pairs:
                    if pair.kind == J_BASE:
                        assert pair.first.j == pair.second.j == pair.base
                        assert interval_distance(pair.first.i, pair.second.i) >= b + 1
                    else:
                        assert pair.first.i == pair.second.i == pair.base
                        assert interval_distance(pair.first.j, pair.second.j) >= b + 1


class TestCyclicPermutations:
    def test_canonical_counts(self):
        assert len(list(canonical_permutations(4))) == 6
        assert len(list(canonical_permutations(1))) == 1
        assert len(list(canonical_permutations(0))) == 1
        assert permutation_pair_count(4, 3) == 12
        assert permutation_pair_count(3, 0) == 2

    def test_must_pin_zero(self):
        with pytest.raises(ValueError):
            CyclicPermutation(3, (1, 0, 2))
        with pytest.raises(ValueError):
            CyclicPermutation(3, (0, 0, 2))


class TestSetToRectangle:
    def test_pair_of_three_cycle_always_interval(self):
        u = Universe(3, 3)
        mask = mask_of([0, 1, 3])
        for c1 in canonical_permutations(3):
            for c2 in canonical_permutations(3):
                r = set_to_rectangle(u, mask, c1, c2)
                assert r is not None
                assert r.shape == (2, 1)

    def test_gap_is_absent(self):
        u = Universe(4, 0)
        ident = CyclicPermutation(4, (0, 1, 2, 3))
        empty = CyclicPermutation(0, ())
        assert set_to_rectangle(u, mask_of([0, 2]), ident, empty) is None
        assert set_to_rectangle(u, mask_of([3, 0]), ident, empty) == \
            Rectangle(Interval(4, 3, 2), Interval(0, 0, 0))

    def test_full_part_whole_cycle(self):
        u = Universe(4, 2)
        c1 = CyclicPermutation(4, (0, 2, 1, 3))
        c2 = CyclicPermutation(2, (0, 1))
        r = set_to_rectangle(u, mask_of([0, 1, 2, 3, 4]), c1, c2)
        assert r is not None
        assert r.i == Interval(4, 0, 4)

    def test_empty_part_absent_in_two_part_mode(self):
        u = Universe(2, 2)
        c1 = CyclicPermutation(2, (0, 1))
        c2 = CyclicPermutation(2, (0, 1))
        assert set_to_rectangle(u, mask_of([2, 3]), c1, c2) is None

    def test_size_mismatch(self):
        u = Universe(3, 3)
        with pytest.raises(ValueError):
            set_to_rectangle(u, 1, CyclicPermutation(2, (0, 1)), CyclicPermutation(3, (0, 1, 2)))
