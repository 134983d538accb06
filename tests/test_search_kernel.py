"""Pins of the clique kernel's search tree and checks of its precomputed rows.

The pinned node counts, maxima and witnesses were first recorded from the
pair-loop kernel that preceded the bitset rows, so any change to the tree
the search visits (order, colouring, prunes, tie-breaks) shows up here.
The symmetry-on hunt cells were re-pinned when orbital branching below
the first root came in, when neighbourhood-dominance pruning came in, and
when that rule was extended to vertices branched at ancestors: each time
their node counts fell, their maxima and witnesses did not change.

The node counts were re-pinned again when the search moved to the greedy
packing numbering (``search._packed``), whose colouring bound is tighter.
No maximum or proven flag moved, but ties now break in the search
numbering, so some witnesses did: 10 of the 72 default-grid cells, the
(6,5) cell and the two-profile cell.  Every witness pinned for a hunt
cell or a new pin is re-validated with the predicates of ``families.py``
(profile, intersection, the constraint, size), so its digest is always
that of a valid maximum.
Witnesses are pinned by a digest of their canonical JSON lists.

The non-trivial and two-sided trees were re-pinned when the star-node
bound came in (``search._star_node_beats``): a node whose every valid
extension is too small is pruned before its colouring.  The hunt cells
(5,5){(2,1)}, (4,5){(2,2)}, (5,4){(2,2)} and (5,5){(2,2)}, the (6,5) and
(6,6){(3,2)} cells and the two-profile cell take fewer nodes (1,582 ->
603 on (5,5){(2,2)}); no maximum, proven flag or witness moved, and the
ANY pins, which the bound never reaches, did not change.

The symmetry-off small cells, the two-profile cell, the wide ANY cell and
the deep clique were re-pinned when the root became the empty clique's
node (``_CliqueSearch.run``): each root is ticked once, not twice, a root
drops the classes of the earlier roots and does orbital branching below
it, and the empty clique's colour m stops the roots once the incumbent
holds every vertex.  No maximum, proven flag, witness or hunt tree moved.
"""

import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import search
from ekrlab.bounds import star_bound
from ekrlab.conjectures import ParameterGrid, best_construction, max_cross_intersecting
from ekrlab.families import (
    Universe,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    profile_of,
)
from ekrlab.search import (
    CompatibilityGraph,
    Constraint,
    SearchBudget,
    _CliqueSearch,
    _degeneracy_order,
    _orbit_classes,
    _packed,
    _split_atoms,
    _star_node_beats,
    build_graph,
    element_incidence,
    max_intersecting,
)
from ekrlab.families import iter_bits


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.witness.to_lists()).encode()).hexdigest()[:16]


# (conjecture, n1, n2, k, l) -> (nodes, max_size, witness digest)
HUNT_CELLS = {
    (1, 4, 5, 2, 2): (2, 30, "846f0f29f12dfc40"),
    (1, 5, 4, 2, 2): (5, 30, "a8a8b5ff0b9b441f"),
    (1, 5, 5, 2, 1): (4, 15, "dee07ee1c96f6d75"),
    (1, 5, 5, 2, 2): (603, 35, "5cf91f6e1521bc08"),
    (2, 4, 5, 2, 2): (89, 28, "b7c72fb21f767130"),
    (2, 5, 4, 2, 2): (175, 28, "aca5595b6f6c9377"),
    (2, 5, 5, 2, 1): (31, 13, "bf4305555588816c"),
    (2, 5, 5, 2, 2): (603, 35, "5cf91f6e1521bc08"),
}


CONSTRAINT = {1: Constraint.NONTRIVIAL, 2: Constraint.TWO_SIDED}


def _hunt_search(conjecture, n1, n2, k, l):
    """One cell searched the way hunt searches it."""
    u = Universe(n1, n2)
    seed = best_construction(conjecture, u, (k, l))
    return max_intersecting(u, [(k, l)], CONSTRAINT[conjecture], seed=seed, symmetry=True)


def _assert_valid_witness(r, constraint, profiles):
    """The witness holds max_size sets of the given profiles and satisfies the constraint."""
    f = r.witness
    assert len(f) == r.max_size
    assert all(profile_of(f.universe, m) in profiles for m in f.sets)
    assert is_intersecting(f)
    if f.sets and constraint is Constraint.NONTRIVIAL:
        assert not is_trivially_intersecting(f)
    if f.sets and constraint is Constraint.TWO_SIDED:
        assert is_two_sided_intersecting(f)


# every default-grid cell as hunt searches it: conjecture n1 n2 k l, max_size,
# witness digest; every cell is proven
GRID_PINS = """
    1 2 2 1 1  0 4f53cda18c2baa0c
    1 2 3 1 1  0 4f53cda18c2baa0c
    1 2 4 1 1  0 4f53cda18c2baa0c
    1 2 4 1 2  6 e3bd983b5430e610
    1 2 5 1 1  0 4f53cda18c2baa0c
    1 2 5 1 2  8 3bdcfb5c67fc3913
    1 3 2 1 1  0 4f53cda18c2baa0c
    1 3 3 1 1  0 4f53cda18c2baa0c
    1 3 4 1 1  0 4f53cda18c2baa0c
    1 3 4 1 2  9 a8e085b41298eb66
    1 3 5 1 1  0 4f53cda18c2baa0c
    1 3 5 1 2  9 a8e085b41298eb66
    1 4 2 1 1  0 4f53cda18c2baa0c
    1 4 2 2 1  6 1cd86276272b7010
    1 4 3 1 1  0 4f53cda18c2baa0c
    1 4 3 2 1  9 c87afda3b0b62bb5
    1 4 4 1 1  0 4f53cda18c2baa0c
    1 4 4 1 2 12 6bba47e048313a24
    1 4 4 2 1 12 3d99c505362abe2d
    1 4 4 2 2 18 0e013148d10a7c51
    1 4 5 1 1  0 4f53cda18c2baa0c
    1 4 5 1 2 12 6bba47e048313a24
    1 4 5 2 1 15 ec37a2d6b972b537
    1 4 5 2 2 30 846f0f29f12dfc40
    1 5 2 1 1  0 4f53cda18c2baa0c
    1 5 2 2 1  8 60d37dd53fd24b00
    1 5 3 1 1  0 4f53cda18c2baa0c
    1 5 3 2 1  9 0f0493e419190015
    1 5 4 1 1  0 4f53cda18c2baa0c
    1 5 4 1 2 15 39709cb214990106
    1 5 4 2 1 12 39bb585d1a27e754
    1 5 4 2 2 30 a8a8b5ff0b9b441f
    1 5 5 1 1  0 4f53cda18c2baa0c
    1 5 5 1 2 15 39709cb214990106
    1 5 5 2 1 15 dee07ee1c96f6d75
    1 5 5 2 2 35 5cf91f6e1521bc08
    2 2 2 1 1  0 4f53cda18c2baa0c
    2 2 3 1 1  0 4f53cda18c2baa0c
    2 2 4 1 1  0 4f53cda18c2baa0c
    2 2 4 1 2  6 eb5d2e4bb188a795
    2 2 5 1 1  0 4f53cda18c2baa0c
    2 2 5 1 2  8 3fc99c2c8a0ebbc2
    2 3 2 1 1  0 4f53cda18c2baa0c
    2 3 3 1 1  0 4f53cda18c2baa0c
    2 3 4 1 1  0 4f53cda18c2baa0c
    2 3 4 1 2  8 c699a1e793143268
    2 3 5 1 1  0 4f53cda18c2baa0c
    2 3 5 1 2  9 78b030c391c707bd
    2 4 2 1 1  0 4f53cda18c2baa0c
    2 4 2 2 1  6 951fe3015f8837e7
    2 4 3 1 1  0 4f53cda18c2baa0c
    2 4 3 2 1  8 91b359e70957db3b
    2 4 4 1 1  0 4f53cda18c2baa0c
    2 4 4 1 2 10 d22f2daeb8972773
    2 4 4 2 1 10 de9cd1608f5dc047
    2 4 4 2 2 18 2e8f487f1fd670d7
    2 4 5 1 1  0 4f53cda18c2baa0c
    2 4 5 1 2 11 b14e9cf9903eb0d8
    2 4 5 2 1 12 cd7de91739eddcda
    2 4 5 2 2 28 b7c72fb21f767130
    2 5 2 1 1  0 4f53cda18c2baa0c
    2 5 2 2 1  8 ee7077df3793b080
    2 5 3 1 1  0 4f53cda18c2baa0c
    2 5 3 2 1  9 299205a4d521d229
    2 5 4 1 1  0 4f53cda18c2baa0c
    2 5 4 1 2 12 9a4a6382602074be
    2 5 4 2 1 11 95128985fcb71462
    2 5 4 2 2 28 aca5595b6f6c9377
    2 5 5 1 1  0 4f53cda18c2baa0c
    2 5 5 1 2 13 381f7157b8402f5e
    2 5 5 2 1 13 bf4305555588816c
    2 5 5 2 2 35 5cf91f6e1521bc08
"""

# (constraint, symmetry) -> (nodes, max_size, witness digest) at (4,4),(2,2)
SMALL_CELL = {
    (Constraint.ANY, True): (2, 18, "f976c1ff898c3e1c"),
    (Constraint.ANY, False): (37, 18, "f976c1ff898c3e1c"),
    (Constraint.NONTRIVIAL, True): (19, 18, "f46b2146de8f4dcd"),
    (Constraint.NONTRIVIAL, False): (54, 18, "f46b2146de8f4dcd"),
    (Constraint.TWO_SIDED, True): (19, 18, "f46b2146de8f4dcd"),
    (Constraint.TWO_SIDED, False): (54, 18, "f46b2146de8f4dcd"),
}


class TestPinnedTree:
    @pytest.mark.parametrize("key", sorted(HUNT_CELLS))
    def test_hunt_cell(self, key):
        r = _hunt_search(*key)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == HUNT_CELLS[key]
        _assert_valid_witness(r, CONSTRAINT[key[0]], [key[3:]])

    @pytest.mark.parametrize("conjecture,nodes", [(1, 1732), (2, 2405)],
                             ids=["conjecture1", "conjecture2"])
    def test_six_five_cell_is_proven(self, conjecture, nodes):
        # a counterexample cell beyond the default grid: sibling-only
        # dominance took 680,671 / 680,704 nodes, ancestor dominance
        # 19,809 / 19,842 in the canonical numbering, the packing numbering
        # 5,813 / 7,961 before the star-node bound
        r = _hunt_search(conjecture, 6, 5, 2, 2)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (nodes, 49, "de5096c87905c50b")
        _assert_valid_witness(r, CONSTRAINT[conjecture], [(2, 2)])

    def test_six_six_three_two_is_proven(self):
        # 196,891 nodes in the canonical numbering, 69,567 before the
        # star-node bound
        r = _hunt_search(2, 6, 6, 3, 2)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (69457, 145, "e60c689fe7a15f16")
        _assert_valid_witness(r, Constraint.TWO_SIDED, [(3, 2)])

    @pytest.mark.parametrize("conjecture", [1, 2])
    def test_six_six_cell_is_proven(self, conjecture):
        # 57,533 nodes each before the star-node bound
        r = _hunt_search(conjecture, 6, 6, 2, 2)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (20623, 58, "cda646ea12497861")
        _assert_valid_witness(r, CONSTRAINT[conjecture], [(2, 2)])

    def test_boundary_profile_proves_the_star_bound(self):
        # 2k = n1: unproven after 3.1M nodes in the canonical numbering, where
        # the colour classes leave the complement pairs apart
        u = Universe(6, 5)
        r = max_intersecting(u, [(3, 2)], Constraint.ANY, symmetry=True)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (2, 100, "57ebfaf6b31220cf")
        assert r.max_size == star_bound(u, [(3, 2)])
        _assert_valid_witness(r, Constraint.ANY, [(3, 2)])

    @pytest.mark.parametrize("conjecture", [1, 2])
    def test_default_grid_maxima_and_witnesses(self, conjecture):
        want = {}
        for line in GRID_PINS.strip().splitlines():
            c, n1, n2, k, l, size, digest = line.split()
            if int(c) == conjecture:
                want[int(n1), int(n2), int(k), int(l)] = (int(size), True, digest)
        got = {}
        for n1, n2, k, l in ParameterGrid.default().cells:
            r = _hunt_search(conjecture, n1, n2, k, l)
            got[n1, n2, k, l] = (r.max_size, r.proven_optimal, _digest(r))
            _assert_valid_witness(r, CONSTRAINT[conjecture], [(k, l)])
        assert got == want

    @pytest.mark.parametrize("key", sorted(SMALL_CELL, key=lambda k: (k[0].value, k[1])))
    def test_small_cell(self, key):
        constraint, symmetry = key
        r = max_intersecting(Universe(4, 4), [(2, 2)], constraint, symmetry=symmetry)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == SMALL_CELL[key]

    def test_two_profile_symmetry(self):
        # two root classes, each with orbital branching below it
        r = max_intersecting(Universe(4, 4), [(1, 2), (2, 1)], Constraint.NONTRIVIAL,
                             symmetry=True)
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (31, 14, "6d4a818efbc0b86e")
        _assert_valid_witness(r, Constraint.NONTRIVIAL, [(1, 2), (2, 1)])

    def test_wide_any(self):
        r = max_intersecting(Universe(8, 8), [(2, 2)])
        assert r.proven_optimal
        assert (r.nodes, r.max_size, _digest(r)) == (1048, 196, "b0f0d9bd51b031ce")

    def test_clique_deeper_than_the_recursion_limit(self):
        # the 1,716 7-sets of 13 points pairwise meet: the search path is as
        # deep as the clique, far past Python's default recursion limit; no
        # two are disjoint, so the packing numbering is the canonical one;
        # the empty clique and the path, then the root colour m = 1,716 stops
        # the other roots
        r = max_intersecting(Universe(13, 0), [(7, 0)])
        assert (r.max_size, r.proven_optimal, r.nodes) == (1716, True, 1717)


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
    """Graphs of every density: each pair is an edge with a drawn probability.

    A drawn edge list would stay short, so dense graphs would be rare.
    """
    m = draw(st.integers(0, 24))
    density = draw(st.floats(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    adj = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        if rng.random() < density:
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
        assert list(_degeneracy_order(adj)) == _naive_degeneracy_order(adj)

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_pairwise_test(self, inst):
        u, profiles = inst
        g = build_graph(u, profiles)
        for i, a in enumerate(g.vertices):
            want = sum(1 << j for j, b in enumerate(g.vertices) if j != i and a & b)
            assert g.adjacency[i] == want

    @given(instances())
    @settings(max_examples=100, deadline=None)
    def test_packings_are_greedy_disjoint_runs(self, inst):
        u, profiles = inst
        g = build_graph(u, profiles)
        packed, perm, inc = _packed(g)
        assert sorted(perm) == list(range(g.size))
        assert packed.vertices == tuple(g.vertices[v] for v in perm)
        assert inc == element_incidence(u, packed.vertices)
        for i, a in enumerate(packed.vertices):
            want = sum(1 << j for j, b in enumerate(packed.vertices) if j != i and a & b)
            assert packed.adjacency[i] == want
        # walk the numbering: a packing opens at the lowest vertex left, takes
        # the highest vertex left of its profile that misses all its members,
        # and closes when no such vertex is left
        left, packing = set(range(g.size)), []
        for v in perm:
            free = [w for w in left if packing
                    and profile_of(u, g.vertices[w]) == profile_of(u, g.vertices[packing[0]])
                    and all(not g.vertices[w] & g.vertices[x] for x in packing)]
            if not free:
                packing = []
                assert v == min(left)
            else:
                assert v == max(free)
            assert all(not g.vertices[v] & g.vertices[x] for x in packing)
            assert all(profile_of(u, g.vertices[v]) == profile_of(u, g.vertices[x]) for x in packing)
            packing.append(v)
            left.remove(v)

    def test_element_incidence(self):
        u = Universe(2, 2)
        masks = [0b0101, 0b0110, 0b1001]
        assert element_incidence(u, masks) == [0b101, 0b010, 0b011, 0b100]

    @pytest.mark.parametrize("n1,n2,profiles", [(3, 3, [(1, 1), (2, 1)]), (4, 4, [(2, 2)]),
                                                (3, 4, [(1, 2), (2, 1)])])
    def test_miss_rows_match_pairs(self, n1, n2, profiles):
        u = Universe(n1, n2)
        g = build_graph(u, profiles)
        s = _CliqueSearch(g, element_incidence(u, g.vertices), _degeneracy_order(g.adjacency),
                          Constraint.TWO_SIDED, None, False, time.perf_counter())
        for v, a in enumerate(g.vertices):
            for rows, side in ((s.miss1, u.x1_mask), (s.miss2, u.x2_mask)):
                want = sum(1 << w for w, b in enumerate(g.vertices)
                           if g.adjacency[v] >> w & 1 and not a & b & side)
                assert rows[v] == want


def _max_clique(adj, p, size=0, best=0):
    """Reference maximum clique over candidates p: plain recursion, size bound only."""
    while p and size + p.bit_count() > best:
        v = p.bit_length() - 1
        p ^= 1 << v
        best = _max_clique(adj, p & adj[v], size + 1, best)
    return max(best, size)


class _SiblingOnly(_CliqueSearch):
    """The kernel before ancestor dominance, on its ANY, no-atoms path, as plain recursion.

    v is tested only against the branches made at its own node, and a child
    starts with no dominating vertices.  Like ``run``, it ticks the empty
    clique and branches on each vertex of the order with no bound.
    """

    def run(self):
        self._tick()
        p = (1 << self.graph.size) - 1
        for v in self.order:
            self.offer(1, 1 << v)
            self._expand(1 << v, 1, p & self.adj[v])
            p ^= 1 << v
        return True, self.nodes

    def _expand(self, rbits, rsize, p):
        self._tick()
        adj, nonadj = self.adj, self.nonadj
        done = 0
        for v, color in reversed(self._color_order(p, self.best - rsize + 1)):
            if rsize + color <= self.best:
                return
            bit = 1 << v
            pv = p & adj[v]
            dom = done & adj[v]
            while dom and pv & nonadj[(dom & -dom).bit_length() - 1]:
                dom &= dom - 1
            if not dom:
                done |= bit
                child = rbits | bit
                if rsize + 1 >= self.best:
                    self.offer(rsize + 1, child)
                self._expand(child, rsize + 1, pv)
            p ^= bit


def _random_graphs(count):
    """Seeded random graphs of every density, not only intersection graphs."""
    rng = random.Random(20261018)
    for _ in range(count):
        m, density = rng.randint(2, 24), rng.random()
        adj = [0] * m
        for i, j in itertools.combinations(range(m), 2):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield adj


def _search_below_hub(cls, adj):
    """Search adj plus a hub, vertex m, joined to every vertex, from the hub's one root.

    The empty clique tests no dominance, but the hub's node branches over
    the whole graph and does; the order holds only the hub, so the search
    ends with its subtree.
    """
    m = len(adj)
    rows = tuple(row | 1 << m for row in adj) + ((1 << m) - 1,)
    g = CompatibilityGraph(Universe(1, 0), ((),), (0,) * (m + 1), rows)
    s = cls(g, [], [m], Constraint.ANY, None, False, time.perf_counter())
    assert s.run() == (True, s.nodes)
    return s


class TestDominance:
    def test_branching_finds_every_maximum_clique(self):
        # the hub's node branches over the whole graph: the dominance rule
        # may drop v only when a single earlier branch covers all of v's
        # candidates
        for adj in _random_graphs(4000):
            m = len(adj)
            s = _search_below_hub(_CliqueSearch, adj)
            assert s.best == _max_clique(adj, (1 << m) - 1) + 1, adj
            witness = list(iter_bits(s.best_bits))
            assert len(witness) == s.best and witness[-1] == m, adj
            for i, v in enumerate(witness):
                assert all(adj[v] >> w & 1 for w in witness[i + 1:-1])

    def test_ties_keep_the_lexicographically_smaller_set(self):
        # offer compares cliques as bitsets: the lowest differing vertex decides
        rng = random.Random(20)
        g = CompatibilityGraph(Universe(1, 0), ((),), (), ())
        for _ in range(2000):
            size = rng.randint(1, 6)
            a, b = (sum(1 << v for v in rng.sample(range(12), size)) for _ in range(2))
            s = _CliqueSearch(g, [], [], Constraint.ANY, None, False, time.perf_counter())
            s.offer(size, a)
            s.offer(size, b)
            assert s.best_bits == min(a, b, key=lambda x: tuple(iter_bits(x)))

    def test_ancestor_dominance_keeps_maximum_and_witness(self):
        # carrying ancestors' branches down may only cut subtrees that can
        # neither beat nor tie the incumbent: the maximum and the
        # lexicographically first witness are those of sibling-only dominance
        for adj in _random_graphs(4000):
            s = _search_below_hub(_CliqueSearch, adj)
            ref = _search_below_hub(_SiblingOnly, adj)
            assert (s.best, s.best_bits) == (ref.best, ref.best_bits), adj
            assert s.nodes <= ref.nodes, adj


def _largest_star_node_extension(adj, w, star):
    """Reference: the largest |K| + |star & N(K)| over every non-empty clique K inside w."""
    best = 0
    ws = list(iter_bits(w))
    for r in range(1, len(ws) + 1):
        for k in itertools.combinations(ws, r):
            if all(adj[a] >> b & 1 for a, b in itertools.combinations(k, 2)):
                common = star
                for v in k:
                    common &= adj[v]
                best = max(best, r + common.bit_count())
    return best


class _NoStarBound(_CliqueSearch):
    """The kernel before the star-node bound: only the empty-w prune of ``_open`` is kept."""

    def _open(self, rsize, and_all, miss1, miss2, p):
        self._tick()
        if not p:
            return []
        if self.constraint is not Constraint.ANY:
            live = and_all
            if miss1:
                live &= self.x2m
            if miss2:
                live &= self.x1m
            while live:
                low = live & -live
                if not p & self.avoid[low.bit_length() - 1]:
                    return []
                live ^= low
        return self._color_order(p, self.best - rsize + 1)


def _small_profile_lists():
    """Every list of one or two profiles (k, l), 1 <= k <= n1, 1 <= l <= n2, with n1, n2 <= 4."""
    for n1, n2 in itertools.product(range(1, 5), repeat=2):
        profiles = list(itertools.product(range(1, n1 + 1), range(1, n2 + 1)))
        for r in (1, 2):
            for ps in itertools.combinations(profiles, r):
                yield Universe(n1, n2), list(ps)


class TestStarNodeBound:
    def test_enumeration_matches_brute_force(self):
        # random graphs whose vertices outside w pairwise meet, as the
        # candidates holding a common element do; every target from below
        # the empty answer to past the whole graph
        rng = random.Random(20261020)
        for _ in range(1500):
            m, density = rng.randint(1, 16), rng.random()
            w = rng.randint(1, (1 << m) - 1)
            star = ((1 << m) - 1) ^ w
            adj = [0] * m
            for i, j in itertools.combinations(range(m), 2):
                if star >> i & star >> j & 1 or rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            want = _largest_star_node_extension(adj, w, star)
            for target in range(-1, m + 2):
                assert _star_node_beats(adj, w, star, target) == (want > target), (adj, w, target)

    @pytest.mark.parametrize("constraint", [Constraint.NONTRIVIAL, Constraint.TWO_SIDED])
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_bound_keeps_maximum_flag_and_witness(self, monkeypatch, constraint, symmetry):
        # the bound prunes only nodes that cannot beat the incumbent; on every
        # small list the answer is the one the kernel gives without it, in
        # no more nodes
        got, nodes = [], 0
        for u, ps in _small_profile_lists():
            r = max_intersecting(u, ps, constraint, symmetry=symmetry)
            got.append((r.max_size, r.proven_optimal, r.witness.sets))
            nodes += r.nodes
        monkeypatch.setattr(search, "_CliqueSearch", _NoStarBound)
        want, ref_nodes = [], 0
        for u, ps in _small_profile_lists():
            r = max_intersecting(u, ps, constraint, symmetry=symmetry)
            want.append((r.max_size, r.proven_optimal, r.witness.sets))
            ref_nodes += r.nodes
        assert got == want
        assert nodes < ref_nodes


def _drive(stack):
    """Run a stack of ``_branch`` generators depth first, as ``run`` does."""
    while stack:
        for child in stack[-1]:
            stack.append(child)
            break
        else:
            stack.pop()


class _RootLoop(_CliqueSearch):
    """The search before the root was the empty clique's node: a loop over the roots.

    Each root is ticked, offered, then opened (a second tick).  Its
    candidates are its neighbours after it in the order.  Under symmetry
    each profile class roots once, at its first vertex, and only the
    position-0 root's subtree does orbital branching.
    """

    def run(self):
        suffix = (1 << self.graph.size) - 1
        unrooted = None
        if self.symmetry:
            parts = (self.x1m, self.x2m)
            profile_classes = _orbit_classes([suffix], suffix, parts, self.inc)
            unrooted = suffix
        for i, v in enumerate(self.order):
            bit = 1 << v
            suffix ^= bit
            vmask = self.masks[v]
            orbit = None
            if unrooted is not None:
                if not unrooted & bit:
                    continue
                unrooted ^= next(c for c in profile_classes if c & bit)
                if i == 0 and (split := _split_atoms(parts, vmask)):
                    orbit = (*split, profile_classes)
            self._tick()
            if self._valid(vmask, False, False):
                self.offer(1, bit)
            p = self.adj[v] & suffix
            if order := self._open(1, vmask, False, False, p):
                _drive([self._branch(reversed(order), bit, 1, vmask, False, False, p, orbit, 0)])
            if unrooted == 0:
                break
        return True, self.nodes


class TestEmptyCliqueRoot:
    @pytest.mark.parametrize("constraint", list(Constraint))
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_root_node_keeps_maximum_flag_and_witness(self, monkeypatch, constraint, symmetry):
        # the roots as branches of the empty clique (one tick each, earlier
        # classes dropped, orbital branching below every root) give the
        # answer of the separate root loop on every small list, in fewer nodes
        got, nodes = [], 0
        for u, ps in _small_profile_lists():
            r = max_intersecting(u, ps, constraint, symmetry=symmetry)
            got.append((r.max_size, r.proven_optimal, r.witness.sets))
            nodes += r.nodes
        monkeypatch.setattr(search, "_CliqueSearch", _RootLoop)
        want, ref_nodes = [], 0
        for u, ps in _small_profile_lists():
            r = max_intersecting(u, ps, constraint, symmetry=symmetry)
            want.append((r.max_size, r.proven_optimal, r.witness.sets))
            ref_nodes += r.nodes
        assert got == want
        assert nodes < ref_nodes

    @pytest.mark.parametrize("n1,n2,profiles,symmetry,reads", [
        (5, 5, [(2, 2)], True, (1, 100)),  # one profile class: its first vertex roots it
        (4, 4, [(1, 2), (2, 1)], True, (13, 48)),  # until the second class's first vertex
        (4, 4, [(2, 2)], False, (36, 36)),  # every vertex roots
    ])
    def test_root_order_is_read_lazily(self, monkeypatch, n1, n2, profiles, symmetry, reads):
        # (vertices read from the degeneracy order, vertices in the graph)
        count = 0

        def counted(adj):
            nonlocal count
            for v in _degeneracy_order(adj):
                count += 1
                yield v

        monkeypatch.setattr(search, "_degeneracy_order", counted)
        u = Universe(n1, n2)
        r = max_intersecting(u, profiles, Constraint.NONTRIVIAL, symmetry=symmetry)
        assert r.proven_optimal
        assert (count, build_graph(u, profiles).size) == reads


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


def _group(p, orbit):
    """The vertices of p grouped by orbit id."""
    want = {}
    for v in iter_bits(p):
        want[orbit[v]] = want.get(orbit[v], 0) | 1 << v
    return sorted(want.values())


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
        # refined from the one class of all vertices, cut to p
        got = _orbit_classes([(1 << g.size) - 1], p, atoms, element_incidence(u, g.vertices))
        assert sorted(got) == _group(p, orbit)

    @given(instances(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_child_atoms_split_the_parent_atoms(self, inst, data):
        u, profiles = inst
        g = build_graph(u, profiles)
        sets = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=3))
        atoms = _atoms_from_scratch(u, [])
        for i in range(len(sets)):
            split = _split_atoms(atoms, sets[i])
            want = _atoms_from_scratch(u, sets[:i + 1])
            if split is None:  # only singletons left: the atom group is trivial
                assert all(a & (a - 1) == 0 for a in want)
                break
            cuts = [a & sets[i] for a in atoms if a & sets[i] not in (0, a)]
            atoms = split[0]
            assert sorted(atoms) == want
            assert sorted(split[1]) == sorted(cuts)

    @given(instances(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_refined_classes_match_scratch_along_branch_paths(self, inst, data):
        # below the first root, each node refines its parent's classes
        # over the cuts of its last vertex; a node's candidates are its
        # parent's, less the classes of earlier branches, meeting adj[v]
        u, profiles = inst
        g = build_graph(u, profiles)
        inc = element_incidence(u, g.vertices)
        everyone = (1 << g.size) - 1
        if not g.size:
            return
        v = next(_degeneracy_order(g.adjacency))
        atoms, p = (u.x1_mask, u.x2_mask), everyone
        classes = _orbit_classes([everyone], everyone, atoms, inc)
        while True:
            split = _split_atoms(atoms, g.vertices[v])
            if split is None:
                break
            atoms, cuts = split
            earlier = [c for c in classes if not c >> v & 1]
            for c in data.draw(st.lists(st.sampled_from(earlier), max_size=2) if earlier
                               else st.just([])):
                p &= ~c
            p &= g.adjacency[v]
            classes = _orbit_classes(classes, p, cuts, inc)
            assert sorted(classes) == sorted(_orbit_classes([p], p, atoms, inc))
            assert sorted(classes) == _group(p, reference_orbits(g.vertices, atoms))
            if not p:
                break
            v = data.draw(st.sampled_from(list(iter_bits(p))))


class TestBudgetFromEntry:
    @pytest.mark.parametrize("solve", [
        lambda b: max_intersecting(Universe(4, 4), [(2, 2)], Constraint.NONTRIVIAL, b),
        lambda b: max_intersecting(Universe(4, 4), [(2, 2)], Constraint.NONTRIVIAL, b,
                                   symmetry=True),
        lambda b: max_cross_intersecting(12, 6, b),  # six forced pairs, one per |a & b|
    ], ids=["search", "search-symmetry", "cross"])
    def test_exhausted_node_limit_counts_alike(self, solve):
        # both solvers tick a node before expanding it and stop at the first
        # tick over the limit, so limit n ends at n + 1 nodes
        r = solve(SearchBudget(node_limit=5))
        assert (r.nodes, r.proven_optimal) == (6, False)

    def test_search_limit_shorter_than_setup(self):
        r = max_intersecting(Universe(4, 4), [(2, 2)], Constraint.NONTRIVIAL,
                             SearchBudget(time_limit_s=1e-9))
        assert not r.proven_optimal
        assert r.nodes <= 1

    def test_cross_limit_shorter_than_setup(self):
        r = max_cross_intersecting(6, 2, SearchBudget(time_limit_s=1e-9))
        assert not r.proven_optimal
        assert r.nodes <= 1
