import json

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.bounds import binomial, star_size
from ekrlab.families import (
    Family,
    Profile,
    Universe,
    candidate_sets,
    enumerate_profile_sets,
    family_from_json,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    iter_bits,
    normalize_profiles,
    profile_ceiling,
    profile_of,
    star_family,
    trivial_witness,
)


def fam(u, *sets):
    return Family.from_lists(u, sets)


class TestUniverse:
    def test_masks(self):
        u = Universe(2, 3)
        assert u.x1_mask == 0b00011
        assert u.x2_mask == 0b11100
        assert u.size == 5

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            Universe(0, 0)
        with pytest.raises(ValueError):
            Universe(-1, 3)

    def test_wide_universe_is_formula_only(self):
        u = Universe(60, 10)  # fine for arithmetic
        with pytest.raises(ValueError):
            u.check_encodable()
        with pytest.raises(ValueError):
            Family.from_lists(u, [[0]])
        with pytest.raises(ValueError):
            enumerate_profile_sets(u, Profile(1, 1))

    def test_one_part_flag(self):
        assert not Universe(4, 0).two_part
        assert Universe(4, 1).two_part


class TestProfiles:
    def test_two_part_requires_positive(self):
        u = Universe(3, 3)
        with pytest.raises(ValueError):
            normalize_profiles(u, [(2, 0)])
        assert normalize_profiles(u, [(2, 1)]) == (Profile(2, 1),)

    def test_one_part_allows_zero_second(self):
        u = Universe(4, 0)
        assert normalize_profiles(u, [(2, 0)]) == (Profile(2, 0),)

    def test_deduplication_preserves_order(self):
        u = Universe(4, 4)
        ps = normalize_profiles(u, [(2, 1), (1, 1), (2, 1)])
        assert ps == (Profile(2, 1), Profile(1, 1))

    def test_ceiling(self):
        assert profile_ceiling([(1, 1)]) == 1
        assert profile_ceiling([(2, 1), (1, 3)]) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_profiles(Universe(2, 2), [(3, 1)])


class TestEnumeration:
    def test_two_part_example(self):
        u = Universe(2, 2)
        masks = enumerate_profile_sets(u, Profile(1, 1))
        assert [list(iter_bits(m)) for m in masks] == [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_full_one_part_set(self):
        masks = enumerate_profile_sets(Universe(3, 0), Profile(3, 0))
        assert [list(iter_bits(m)) for m in masks] == [[0, 1, 2]]

    def test_count_4422(self):
        assert len(enumerate_profile_sets(Universe(4, 4), Profile(2, 2))) == 36

    def test_count_matches_binomials_exhaustive(self):
        for n1 in range(0, 13):
            for n2 in range(0, 13 - n1):
                if n1 + n2 < 1:
                    continue
                u = Universe(n1, n2)
                for k in range(0, n1 + 1):
                    for l in range(0, n2 + 1):
                        if u.two_part and (k == 0 or l == 0):
                            continue
                        assert len(enumerate_profile_sets(u, Profile(k, l))) == \
                            binomial(n1, k) * binomial(n2, l), (n1, n2, k, l)


class TestPredicates:
    def test_intersecting(self):
        u = Universe(4, 0)
        assert is_intersecting(fam(u, [0, 1], [1, 2]))
        assert not is_intersecting(fam(u, [0, 1], [2, 3]))
        assert is_intersecting(fam(u))

    def test_trivially_intersecting(self):
        u = Universe(4, 0)
        f = fam(u, [0, 1], [0, 2])
        assert is_trivially_intersecting(f)
        assert trivial_witness(f) == 0
        triangle = fam(u, [0, 1], [1, 2], [0, 2])
        assert is_intersecting(triangle)
        assert not is_trivially_intersecting(triangle)
        assert trivial_witness(triangle) is None

    def test_singleton_and_empty(self):
        u = Universe(4, 0)
        f = fam(u, [3])
        assert is_trivially_intersecting(f)
        assert trivial_witness(f) == 3
        empty = fam(u)
        assert is_trivially_intersecting(empty)
        assert trivial_witness(empty) is None

    def test_two_sided_example(self):
        u = Universe(2, 2)
        f = fam(u, [0, 2], [1, 2], [0, 3])
        assert is_two_sided_intersecting(f)

    def test_trivial_family_never_two_sided(self):
        u = Universe(2, 2)
        f = star_family(u, [(1, 1)], 0)
        assert is_trivially_intersecting(f)
        assert not is_two_sided_intersecting(f)

    def test_two_sided_empty_false(self):
        assert not is_two_sided_intersecting(fam(Universe(2, 2)))

    def test_two_sided_needs_two_parts(self):
        with pytest.raises(ValueError):
            is_two_sided_intersecting(fam(Universe(4, 0), [0, 1]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_implications(self, data):
        u = Universe(3, 3)
        pool = candidate_sets(u, [(1, 1), (2, 2)])
        sets = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=6))
        f = Family(u, tuple(sets))
        if is_trivially_intersecting(f):
            assert is_intersecting(f)
        if len(f) and is_two_sided_intersecting(f):
            assert not is_trivially_intersecting(f)


class TestStars:
    def test_star_example(self):
        u = Universe(2, 2)
        f = star_family(u, [(1, 1)], 0)
        assert f.to_lists() == [[0, 2], [0, 3]]

    def test_one_part_singleton(self):
        f = star_family(Universe(3, 0), [(1, 0)], 1)
        assert f.to_lists() == [[1]]

    def test_star_matches_star_size(self):
        for n1, n2, profiles in [(4, 4, [(2, 2)]), (5, 4, [(2, 2), (1, 1)]), (3, 3, [(1, 1)])]:
            u = Universe(n1, n2)
            for x in range(u.size):
                f = star_family(u, profiles, x)
                side = "X1" if x < n1 else "X2"
                assert len(f) == star_size(u, profiles, side)
                assert is_intersecting(f)
                assert is_trivially_intersecting(f)
                assert trivial_witness(f) is not None


class TestFamilyIO:
    def test_round_trip(self):
        u = Universe(2, 2)
        f = fam(u, [0, 2], [1, 3])
        data = {"n1": 2, "n2": 2, "sets": f.to_lists()}
        assert data == {"n1": 2, "n2": 2, "sets": [[0, 2], [1, 3]]}
        assert family_from_json(json.loads(json.dumps(data))) == f

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            family_from_json({"n1": 2, "n2": 2, "sets": [[0, 2], [0, 2]]})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            family_from_json({"n1": 2, "n2": 2, "sets": [[7]]})

    def test_profile_of(self):
        u = Universe(3, 2)
        f = fam(u, [0, 2, 3])
        assert profile_of(u, f.sets[0]) == Profile(2, 1)
