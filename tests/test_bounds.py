import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.bounds import (
    _two_sided_term,
    binomial,
    cross_bound,
    ekr_bound,
    frankl_bound,
    hm_bound,
    nontrivial_bound,
    star_bound,
    star_bound_proven,
    star_size,
    two_sided_bound,
)
from ekrlab.families import Universe


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(9, 1) == 9
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


def test_binomial_big_integers():
    assert binomial(64, 32) == 1832624140942590534


def test_star_size_values():
    assert star_size(Universe(4, 4), [(2, 2)], "X1") == 18
    assert star_size(Universe(5, 4), [(2, 2)], "X2") == 30
    assert star_size(Universe(9, 9), [(1, 1)], "X1") == 9


def test_frankl_values():
    assert frankl_bound(Universe(4, 4), (2, 2)) == 18
    assert frankl_bound(Universe(5, 4), (2, 2)) == 30
    assert star_bound(Universe(9, 9), [(1, 1)]) == 9


def test_star_bound_multi_profile():
    u = Universe(6, 6)
    profiles = [(1, 1), (2, 1)]
    s1 = binomial(5, 0) * binomial(6, 1) + binomial(5, 1) * binomial(6, 1)
    s2 = binomial(6, 1) * binomial(5, 0) + binomial(6, 2) * binomial(5, 0)
    assert star_size(u, profiles, "X1") == s1 == 36
    assert star_size(u, profiles, "X2") == s2 == 21
    assert star_bound(u, profiles) == 36


def test_ekr_and_hm():
    assert ekr_bound(5, 2) == 4
    assert hm_bound(5, 2) == 3
    assert hm_bound(8, 4) == 35
    assert cross_bound(5, 2) == 8
    assert cross_bound(4, 2) == 6


def test_conjectured_bounds():
    u = Universe(4, 4)
    assert nontrivial_bound(u, (2, 2)) == 18
    assert two_sided_bound(u, (2, 2)) == 18


def test_preconditions_raise():
    with pytest.raises(ValueError):
        hm_bound(3, 2)
    with pytest.raises(ValueError):
        cross_bound(3, 2)
    with pytest.raises(ValueError):
        ekr_bound(4, 0)
    with pytest.raises(ValueError):
        nontrivial_bound(Universe(3, 4), (2, 2))
    with pytest.raises(ValueError):
        two_sided_bound(Universe(4, 3), (2, 2))


@pytest.mark.parametrize("n,k,m,l", [(4, 2, 0, 0), (0, 0, 4, 2), (4, 3, 4, 2), (4, 2, 3, 2)])
def test_two_sided_term_needs_both_halves(n, k, m, l):
    # the term once gave a size for a missing part, as in the one-part universe (4, 0)
    with pytest.raises(ValueError, match="needs 1 <= k and 2k <= n"):
        _two_sided_term(n, k, m, l)


def test_star_bound_proven_flag():
    assert star_bound_proven(Universe(9, 9), [(1, 1)])
    assert not star_bound_proven(Universe(9, 9), [(2, 1)])
    assert star_bound_proven(Universe(36, 40), [(2, 2)])


@given(n1=st.integers(2, 10), n2=st.integers(2, 10),
       k=st.integers(1, 5), l=st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_bounds_symmetric_under_part_swap(n1, n2, k, l):
    if k > n1 or l > n2:
        return
    assert frankl_bound(Universe(n1, n2), (k, l)) == frankl_bound(Universe(n2, n1), (l, k))
    assert star_bound(Universe(n1, n2), [(k, l)]) == star_bound(Universe(n2, n1), [(l, k)])
    if 2 * k <= n1 and 2 * l <= n2:
        assert nontrivial_bound(Universe(n1, n2), (k, l)) == \
            nontrivial_bound(Universe(n2, n1), (l, k))
        assert two_sided_bound(Universe(n1, n2), (k, l)) == \
            two_sided_bound(Universe(n2, n1), (l, k))
