"""Pins of the clique kernel's search tree and checks of its precomputed rows.

The pinned node counts, maxima and witnesses were recorded from the
pair-loop kernel that preceded the bitset rows, so any change to the tree
the search visits (order, colouring, prunes, tie-breaks) shows up here.
Witnesses are pinned by a digest of their canonical JSON lists.
"""

import hashlib
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab.conjectures import best_construction, max_cross_intersecting
from ekrlab.families import Universe
from ekrlab.search import (
    Constraint,
    SearchBudget,
    _CliqueSearch,
    _degeneracy_order,
    build_graph,
    element_incidence,
    max_intersecting,
)


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.witness.to_lists()).encode()).hexdigest()[:16]


# (conjecture, n1, n2, k, l) -> (nodes, max_size, witness digest)
HUNT_CELLS = {
    (1, 4, 5, 2, 2): (1342, 30, "846f0f29f12dfc40"),
    (1, 5, 4, 2, 2): (174, 30, "a8a8b5ff0b9b441f"),
    (1, 5, 5, 2, 1): (2558, 15, "dee07ee1c96f6d75"),
    (2, 4, 5, 2, 2): (9096, 28, "b7c72fb21f767130"),
    (2, 5, 4, 2, 2): (1881, 28, "aca5595b6f6c9377"),
    (2, 5, 5, 2, 1): (7608, 13, "b47238f5d20e8fe3"),
}

# (constraint, symmetry) -> (nodes, max_size, witness digest) at (4,4),(2,2)
SMALL_CELL = {
    (Constraint.ANY, True): (2, 18, "f976c1ff898c3e1c"),
    (Constraint.ANY, False): (72, 18, "f976c1ff898c3e1c"),
    (Constraint.NONTRIVIAL, True): (19, 18, "f46b2146de8f4dcd"),
    (Constraint.NONTRIVIAL, False): (89, 18, "f46b2146de8f4dcd"),
    (Constraint.TWO_SIDED, True): (19, 18, "f46b2146de8f4dcd"),
    (Constraint.TWO_SIDED, False): (89, 18, "f46b2146de8f4dcd"),
}


class TestPinnedTree:
    @pytest.mark.parametrize("key", sorted(HUNT_CELLS))
    def test_hunt_cell(self, key):
        conjecture, n1, n2, k, l = key
        u = Universe(n1, n2)
        constraint = Constraint.NONTRIVIAL if conjecture == 1 else Constraint.TWO_SIDED
        seed = best_construction(conjecture, u, (k, l))
        r = max_intersecting(u, [(k, l)], constraint, seed=seed, symmetry=True)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == HUNT_CELLS[key]

    @pytest.mark.parametrize("key", sorted(SMALL_CELL, key=lambda k: (k[0].value, k[1])))
    def test_small_cell(self, key):
        constraint, symmetry = key
        r = max_intersecting(Universe(4, 4), [(2, 2)], constraint, symmetry=symmetry)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == SMALL_CELL[key]

    def test_wide_any(self):
        r = max_intersecting(Universe(8, 8), [(2, 2)])
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (3074, 196, "b0f0d9bd51b031ce")


def _naive_degeneracy_order(adj):
    """Reference definition: minimum live degree, ties to the smaller index."""
    live = set(range(len(adj)))
    deg = [row.bit_count() for row in adj]
    order = []
    while live:
        v = min(live, key=lambda i: (deg[i], i))
        order.append(v)
        live.remove(v)
        for w in live:
            if adj[v] >> w & 1:
                deg[w] -= 1
    return order


@st.composite
def graphs(draw):
    m = draw(st.integers(0, 24))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    adj = [0] * m
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


@st.composite
def instances(draw):
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(0, 4))
    u = Universe(n1, n2)
    if n2 == 0:
        profiles = draw(st.lists(st.builds(lambda k: (k, 0), st.integers(0, n1)),
                                 min_size=1, max_size=2))
    else:
        profiles = draw(st.lists(st.tuples(st.integers(1, n1), st.integers(1, n2)),
                                 min_size=1, max_size=2))
    return u, profiles


class TestRows:
    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_bucket_queue_matches_min_scan(self, adj):
        assert _degeneracy_order(adj) == _naive_degeneracy_order(adj)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_pairwise_test(self, inst):
        u, profiles = inst
        g = build_graph(u, profiles)
        for i, a in enumerate(g.vertices):
            want = sum(1 << j for j, b in enumerate(g.vertices) if j != i and a & b)
            assert g.adjacency[i] == want

    def test_element_incidence(self):
        u = Universe(2, 2)
        masks = [0b0101, 0b0110, 0b1001]
        assert element_incidence(u, masks) == [0b101, 0b010, 0b011, 0b100]

    @pytest.mark.parametrize("n1,n2,profiles", [(3, 3, [(1, 1), (2, 1)]), (4, 4, [(2, 2)]),
                                                (3, 4, [(1, 2), (2, 1)])])
    def test_miss_rows_match_pairs(self, n1, n2, profiles):
        u = Universe(n1, n2)
        g = build_graph(u, profiles)
        s = _CliqueSearch(g, Constraint.TWO_SIDED, None, False, time.perf_counter())
        for v, a in enumerate(g.vertices):
            for rows, side in ((s.miss1, u.x1_mask), (s.miss2, u.x2_mask)):
                want = sum(1 << w for w, b in enumerate(g.vertices)
                           if g.adjacency[v] >> w & 1 and not a & b & side)
                assert rows[v] == want


class TestBudgetFromEntry:
    def test_search_limit_shorter_than_setup(self):
        r = max_intersecting(Universe(4, 4), [(2, 2)], Constraint.NONTRIVIAL,
                             SearchBudget(time_limit_s=1e-9))
        assert not r.proven_optimal
        assert r.nodes <= 1

    def test_cross_limit_shorter_than_setup(self):
        r = max_cross_intersecting(6, 2, SearchBudget(time_limit_s=1e-9))
        assert not r.proven_optimal
        assert r.nodes <= 1
