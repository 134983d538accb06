"""Pins of the clique kernel's search tree and checks of its precomputed rows.

The pinned node counts, maxima and witnesses were recorded from the
pair-loop kernel that preceded the bitset rows, so any change to the tree
the search visits (order, colouring, prunes, tie-breaks) shows up here.
The symmetry-on hunt cells were re-pinned when orbital branching below
the first root came in: their node counts fell, their maxima and
witnesses did not change.  Witnesses are pinned by a digest of their
canonical JSON lists.
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
    _orbit_classes,
    _split_atoms,
    build_graph,
    element_incidence,
    max_intersecting,
)
from ekrlab.families import iter_bits


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.witness.to_lists()).encode()).hexdigest()[:16]


# (conjecture, n1, n2, k, l) -> (nodes, max_size, witness digest)
HUNT_CELLS = {
    (1, 4, 5, 2, 2): (664, 30, "846f0f29f12dfc40"),
    (1, 5, 4, 2, 2): (71, 30, "a8a8b5ff0b9b441f"),
    (1, 5, 5, 2, 1): (327, 15, "dee07ee1c96f6d75"),
    (1, 5, 5, 2, 2): (42046, 35, "596cf30760cc8af0"),
    (2, 4, 5, 2, 2): (4442, 28, "b7c72fb21f767130"),
    (2, 5, 4, 2, 2): (739, 28, "aca5595b6f6c9377"),
    (2, 5, 5, 2, 1): (777, 13, "b47238f5d20e8fe3"),
    (2, 5, 5, 2, 2): (42046, 35, "596cf30760cc8af0"),
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

    def test_two_profile_symmetry(self):
        # two root classes: orbital branching below the position-0 root, plain below the other
        r = max_intersecting(Universe(4, 4), [(1, 2), (2, 1)], Constraint.NONTRIVIAL,
                             symmetry=True)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (319, 14, "eb19fb6df19c373c")

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


def _swap_bits(mask, a, b):
    if ((mask >> a) ^ (mask >> b)) & 1:
        return mask ^ ((1 << a) | (1 << b))
    return mask


def reference_orbits(vertices, atoms):
    """Orbit ids by union-find over the transpositions of neighbouring atom elements."""
    index_of = {mask: i for i, mask in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for atom in atoms:
        elems = list(iter_bits(atom))
        for a, b in zip(elems, elems[1:]):
            for i, mask in enumerate(vertices):
                ri, rj = find(i), find(index_of[_swap_bits(mask, a, b)])
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(vertices))]


def _atoms_from_scratch(u, sets):
    """The blocks of elements that agree on part and on membership in every set."""
    blocks = {}
    for e in range(u.size):
        key = (e < u.n1,) + tuple(bool(s >> e & 1) for s in sets)
        blocks[key] = blocks.get(key, 0) | 1 << e
    return sorted(blocks.values())


class TestOrbitClasses:
    @given(instances(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_classes_are_atom_group_orbits(self, inst, data):
        u, profiles = inst
        g = build_graph(u, profiles)
        sets = data.draw(st.lists(st.sampled_from(g.vertices), max_size=3))
        atoms = _atoms_from_scratch(u, sets)
        p = data.draw(st.integers(0, (1 << g.size) - 1))
        orbit = reference_orbits(g.vertices, atoms)
        want = {}
        for v in iter_bits(p):
            want[orbit[v]] = want.get(orbit[v], 0) | 1 << v
        got = _orbit_classes(p, atoms, element_incidence(u, g.vertices))
        assert sorted(got) == sorted(want.values())

    @given(instances(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_child_atoms_split_the_parent_atoms(self, inst, data):
        u, profiles = inst
        g = build_graph(u, profiles)
        sets = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=3))
        atoms = _atoms_from_scratch(u, [])
        for i in range(len(sets)):
            atoms = _split_atoms(atoms, sets[i])
            want = _atoms_from_scratch(u, sets[:i + 1])
            if atoms is None:  # only singletons left: the atom group is trivial
                assert all(a & (a - 1) == 0 for a in want)
                break
            assert sorted(atoms) == want


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
