import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.cyclic import (
    I_BASE,
    J_BASE,
    BlockingPair,
    CyclicPermutation,
    Interval,
    Rectangle,
    all_intervals,
    blocking_rows,
    canonical_permutations,
    find_blocking_pairs,
    interval_distance,
    point_distance,
    proj_intersecting,
    set_to_rectangle,
)
from ekrlab.cyclic import _arc_mask, _consecutive_interval
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


def _elements(iv):
    """Reference: an interval's elements on Z_n, stepped one by one from its start."""
    return sorted((iv.start + i) % iv.n for i in range(iv.length))


class TestInterval:
    def test_elements_wrap(self):
        assert _arc_mask(Interval(6, 4, 3)) == mask_of([0, 4, 5])
        for n in range(1, 9):
            for iv in (Interval(n, s, length) for s in range(n) for length in range(1, n + 1)):
                assert _arc_mask(iv) == mask_of(_elements(iv))

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
        scan_overlap = any(i2.contains(x) for x in _elements(i1))
        scan_distance = min(point_distance(a, b, n) for a in _elements(i1) for b in _elements(i2))
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


class TestBlockingPairs:
    def test_example_pair(self):
        r1 = Rectangle(Interval(12, 0, 2), Interval(12, 0, 2))
        r2 = Rectangle(Interval(12, 4, 2), Interval(12, 0, 2))
        pairs = find_blocking_pairs([r1, r2], 2)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.kind == J_BASE
        assert pair.base == Interval(12, 0, 2)
        assert find_blocking_pairs([r1, r2], 3) == ()
        assert find_blocking_pairs([r1], 2) == ()

    def test_distinct_base_counts(self):
        rects = [
            Rectangle(Interval(10, 0, 1), Interval(10, 0, 1)),
            Rectangle(Interval(10, 4, 1), Interval(10, 0, 1)),
            Rectangle(Interval(10, 0, 1), Interval(10, 4, 1)),
        ]
        pairs = find_blocking_pairs(rects, 1)
        assert len({p.base for p in pairs if p.kind == J_BASE}) == 1
        assert len({p.base for p in pairs if p.kind == I_BASE}) == 1
        assert {p.kind for p in pairs} == {J_BASE, I_BASE}

    def test_reported_pairs_reverified(self):
        rng = random.Random(7)
        space = [Rectangle(i, j) for i in all_intervals(8, 2) for j in all_intervals(8, 2)]
        for _ in range(50):
            rects = sorted(set(rng.sample(space, rng.randint(2, 10))))
            for b in (1, 2):
                for pair in find_blocking_pairs(rects, b):
                    if pair.kind == J_BASE:
                        assert pair.first.j == pair.second.j == pair.base
                        assert interval_distance(pair.first.i, pair.second.i) >= b + 1
                    else:
                        assert pair.first.i == pair.second.i == pair.base
                        assert interval_distance(pair.first.j, pair.second.j) >= b + 1


def _blocking_pairs_by_scan(rects, b):
    """Reference: every pair of the sorted rectangles tested for both kinds."""
    rs = sorted(rects)
    pairs = []
    for x in range(len(rs)):
        for y in range(x + 1, len(rs)):
            r1, r2 = rs[x], rs[y]
            if r1.j == r2.j and interval_distance(r1.i, r2.i) >= b + 1:
                pairs.append(BlockingPair(J_BASE, r1, r2, r1.j))
            if r1.i == r2.i and interval_distance(r1.j, r2.j) >= b + 1:
                pairs.append(BlockingPair(I_BASE, r1, r2, r1.i))
    return tuple(pairs)


@st.composite
def rect_lists(draw):
    """Rectangles of mixed shapes on one Z_n1 x Z_n2, duplicates allowed."""
    n1, n2 = draw(st.integers(1, 10)), draw(st.integers(1, 10))

    def interval(n):
        # short lengths make equal projections, hence blocking pairs, common
        lengths = st.integers(1, min(n, 3)) | st.just(n)
        return st.builds(Interval, st.just(n), st.integers(0, n - 1), lengths)

    return draw(st.lists(st.builds(Rectangle, interval(n1), interval(n2)), max_size=25))


class TestGroupedKernels:
    @given(rects=rect_lists(), b=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_blocking_pairs_match_pairwise_scan(self, rects, b):
        assert find_blocking_pairs(rects, b) == _blocking_pairs_by_scan(rects, b)

    @given(rects=rect_lists(), b=st.integers(1, 4), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_blocking_rows_match_pairwise_scan(self, rects, b, data):
        # the rows behind both find_blocking_pairs and the verifiers' blocking checks
        if rects:  # repeated rectangles pair with the same partners, never with each other
            rects = rects + data.draw(st.lists(st.sampled_from(rects), max_size=6))
        rs = sorted(rects)
        j_rows, i_rows = blocking_rows(rs, b)
        for rows in (j_rows, i_rows):
            assert len(rows) == len(rs)
            assert all((rows[x] >> y & 1) == (rows[y] >> x & 1)
                       for x in range(len(rs)) for y in range(len(rs)))
            assert all(rows[x] >> x & 1 == 0 and rows[x] >> len(rs) == 0 for x in range(len(rs)))
        pairs = []
        for x, y in combinations(range(len(rs)), 2):
            if j_rows[x] >> y & 1:
                pairs.append(BlockingPair(J_BASE, rs[x], rs[y], rs[x].j))
            if i_rows[x] >> y & 1:
                pairs.append(BlockingPair(I_BASE, rs[x], rs[y], rs[x].i))
        assert tuple(pairs) == _blocking_pairs_by_scan(rects, b)

    def test_blocking_pairs_match_on_whole_spaces(self):
        for n, b in ((9, 2), (8, 1), (10, 3)):
            space = [Rectangle(i, j) for k in (1, 2) for i in all_intervals(n, k)
                     for j in all_intervals(n, 2)]
            random.Random(n).shuffle(space)
            assert find_blocking_pairs(space, b) == _blocking_pairs_by_scan(space, b)


class TestCyclicPermutations:
    def test_canonical_counts(self):
        assert len(list(canonical_permutations(4))) == 6
        assert len(list(canonical_permutations(1))) == 1
        assert len(list(canonical_permutations(0))) == 1

    def test_must_pin_zero(self):
        with pytest.raises(ValueError):
            CyclicPermutation(3, (1, 0, 2))
        with pytest.raises(ValueError):
            CyclicPermutation(3, (0, 0, 2))


def _consecutive_by_scan(positions, n):
    """Reference: try every position as the start of a run covering them all."""
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


class TestSetToRectangle:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_consecutive_interval_matches_scan(self, data):
        n = data.draw(st.integers(0, 9))
        positions = data.draw(st.permutations(range(n))) if n else []
        positions = positions[:data.draw(st.integers(0, n))]
        assert _consecutive_interval(positions, n) == _consecutive_by_scan(positions, n)

    def test_consecutive_interval_every_subset(self):
        for n in range(1, 8):
            for bits in range(1 << n):
                positions = [p for p in range(n) if bits >> p & 1]
                assert _consecutive_interval(positions, n) == \
                    _consecutive_by_scan(positions, n), (n, positions)

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
