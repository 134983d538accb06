"""Exact maximum intersecting family search.

Candidate sets form a compatibility graph (edge = non-empty intersection),
so intersecting families are exactly its cliques.  The solver is a
branch-and-bound maximum clique search over bitset adjacency rows with a
greedy sequential coloring bound and degeneracy-order root branching;
structural constraints (non-trivial, two-sided) are enforced with
admissible prunes plus predicate checks on every recorded clique.

Every layer works on bitsets.  Rows are built from element incidence: S_e
is the bitset of candidates containing element e, and row(v) is the OR of
S_e over e in v.  The degeneracy order comes from a bucket queue whose
buckets are bitsets (Matula & Beck).  The coloring skips vertices whose
color is too low to branch on (the color cut of San Segundo et al.'s
BBMC).  The constraint prunes test precomputed rows: ``avoid[e]`` (the
candidates missing e) and, for two-sided search, ``miss1[v]`` /
``miss2[v]`` (the neighbours whose intersection with v misses X1 / X2).

The root is the empty clique's node, branched like any other: its
candidates are every vertex, taken in the degeneracy order, and each has
colour m, the vertex count, so the colour bound stops the roots only once
the incumbent holds every vertex.  With ``symmetry=True`` every node, the
root included, does orbital branching (Ostrowski et al.) under the group
S_n1 x S_n2, which preserves profiles, adjacency and both constraints.
The atoms of a clique R split the ground set into blocks of elements with
the same part and the same membership in every set of R (the empty
clique's atoms are X1 and X2); a permutation inside the atoms fixes every
set of R, and two candidates lie in one orbit of that atom group exactly
when they meet every atom in the same number of elements, so the root's
classes are the profile classes.  After branching on v a node drops v's
whole class from its candidates, since any extension through a class-mate
maps onto one through v: each profile class roots once, at its first
vertex in the order.  That needs the invariant that every node's
candidate set is a union of classes: the root's candidates are all
vertices, and a child's candidates are its parent's (a union of classes)
meeting the neighbours of v (fixed by the child's smaller group).

The classes are refined incrementally.  A child's atoms are its parent's
atoms split by v, and a set's count in a - v is its count in a minus its
count in the cut a & v.  So a node takes its parent's classes, cuts them to
its own candidates and splits them by the count in each cut of v: it reads
at most k + l elements, not all n1 + n2.  It does so only once a candidate
passes the colour bound, so a pruned node never pays, and it hands its
classes down to its children.

Every node but the root also prunes by neighbourhood dominance.  Before
branching on v it takes v's child candidates pv = p & adj[v]; when some
vertex a that was branched on earlier is adjacent to v and to all of pv,
v (its class, under orbital branching) leaves p with no child.  a may
have been branched on at this node or at an ancestor A, before the
branch that leads here: each node carries the set of such vertices down,
and a child keeps a only while a is adjacent to every vertex added since
A, so every clique of this node plus a lies in a's subtree at A.  Each
clique of v's subtree plus a is then a strictly larger clique inside a's
subtree, and it stays valid because every constraint is monotone: adding
a set to a valid clique keeps it valid (the common intersection only
shrinks, the pairs that miss a side only grow).  a's finished subtree has
raised the incumbent to at least that size, so v's subtree can neither
beat nor tie it: the maximum, the witness and when the incumbent changes
are the same as without the rule.

Non-trivial and two-sided search add a star-node bound (the maximum
non-trivial family sits below the star by a Hilton-Milner margin, and the
colouring counts the star as reachable).  Both constraints imply a valid
clique has an empty common intersection, so for each live element e of
R's intersection every valid extension holds a candidate of w = p &
avoid[e].  The node takes the live e with the smallest w; the candidates
p - w all contain e, so they form a clique, and the largest extension
through w is exactly the maximum, over non-empty cliques K inside w, of
|K| plus K's common neighbours in p - w.  When |w| <= ``STAR_NODE_MAX``
``_star_node_beats`` enumerates it on a bitset stack, and the node is
pruned, before its colouring, unless some K beats the incumbent.  The
bound is admissible, like the colour bound: it prunes only nodes with no
valid extension larger than the incumbent.  So a finished subtree still
raises the incumbent to its largest valid clique, which is what the
dominance rule needs, and orbital branching keeps its proof, since the
bound is the same at every node of an orbit.

The search runs on a renumbered copy of the graph.  A colour class is a
pairwise-disjoint family, and in the canonical (lexicographic) numbering
the greedy colouring leaves many sets alone in their class, so its bound
is loose.  As BBMC orders its bitsets by an initial colouring, ``_packed``
numbers the vertices so that consecutive ones form greedy disjoint
packings: each packing starts at the lowest canonical vertex left and
keeps taking the highest vertex left of its profile that misses every
member so far (at n = 2k the last k-set is the complement of the first,
so complement pairs come together).  A node's colouring scans its
candidates in that order and so starts from those packings.  Packings
that mix profiles gave larger trees: over the 212 ANY lists of one to
three profiles at (4,4) to (6,6), 32 stayed unproven at 30,000 nodes
with mixed packings, 21 in the canonical numbering, 11 with one profile
per packing.  The root branches in the degeneracy order of the canonical
graph, mapped to the new numbering, and reads it lazily: it stops once
its candidates are empty, so under symmetry once every profile class has
a root (for one profile, after the first vertex).  Ties between maximum
cliques go to the lexicographically smallest vertex set in the search
numbering, compared on bitsets: of two sets of one size, the smaller
holds the lowest vertex in which they differ.

The depth-first search uses no recursion: it runs on an explicit stack
of per-node generators, each yielding its children in branch order, so a
clique may be as deep as the candidate list.

A plain subset-enumeration oracle, which never looks at the graph, backs
the solver for small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from math import comb

from .families import (
    Family,
    Universe,
    candidate_sets,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    iter_bits,
    normalize_profiles,
    sort_key,
)

VERTEX_CAP = 20_000
ORACLE_CAP = 25
STAR_NODE_MAX = 10  # the widest non-star part the star-node bound enumerates


class Constraint(Enum):
    ANY = "any"
    NONTRIVIAL = "nontrivial"
    TWO_SIDED = "twosided"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")

    def exceeded(self, nodes: int, start: float) -> bool:
        """Whether ``nodes`` ticked nodes, or the time since the call's ``start``, exceed it.

        Solvers tick a node before expanding it, so limit n stops at n + 1
        nodes; the time counts set-up.  The clique search's first tick, the
        empty clique's, checks the time after set-up; the cross solver
        checks ``nodes = 0`` before its first node.
        """
        return (self.node_limit is not None and nodes > self.node_limit
                or self.time_limit_s is not None and time.perf_counter() - start > self.time_limit_s)


class _BudgetExhausted(Exception):
    """Raised inside both exact solvers when their ``SearchBudget`` is exceeded."""


@dataclass(frozen=True)
class SearchResult:
    max_size: int
    witness: Family
    proven_optimal: bool
    nodes: int
    elapsed_s: float

    def to_json(self) -> dict:
        return {
            "max_size": self.max_size,
            "witness": self.witness.to_lists(),
            "proven_optimal": self.proven_optimal,
            "nodes": self.nodes,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
        }


@dataclass(frozen=True)
class CompatibilityGraph:
    universe: Universe
    profiles: tuple
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


def element_incidence(u: Universe, masks) -> list[int]:
    """S_e for every element e: the bitset of candidate indices whose set contains e.

    This and ``meet_rows`` walk each set's bits inline, not through
    ``iter_bits``: every search builds both twice, for the canonical and
    the packed numbering, and the generator was most of their cost.
    """
    inc = [0] * u.size
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            inc[low.bit_length() - 1] |= bit
            mask ^= low
    return inc


def meet_rows(u: Universe, masks, inc: list[int] | None = None) -> list[int]:
    """For each set, the bitset of the sets it meets (itself included when non-empty).

    The row of a set is the OR of S_e over its elements e; inc, when given,
    is ``element_incidence(u, masks)``.
    """
    if inc is None:
        inc = element_incidence(u, masks)
    rows = []
    for mask in masks:
        row = 0
        while mask:
            low = mask & -mask
            row |= inc[low.bit_length() - 1]
            mask ^= low
        rows.append(row)
    return rows


def _capped_candidates(u: Universe, profiles, cap: int, name: str) -> tuple[tuple, list[int]]:
    """The normalized profiles and their candidate sets, counted against ``cap`` first."""
    ps = normalize_profiles(u, profiles)
    u.check_encodable()
    m = sum(comb(u.n1, k) * comb(u.n2, l) for k, l in ps)  # distinct profiles: disjoint classes
    if m > cap:
        raise ValueError(f"{m} candidate sets exceed the {name} cap of {cap}")
    return ps, candidate_sets(u, ps)


def build_graph(u: Universe, profiles) -> CompatibilityGraph:
    """Compatibility graph over every profile-respecting set, in canonical vertex order."""
    ps, masks = _capped_candidates(u, profiles, VERTEX_CAP, "vertex")
    adj = tuple(row & ~(1 << v) for v, row in enumerate(meet_rows(u, masks)))
    return CompatibilityGraph(u, ps, tuple(masks), adj)


def _packed(graph: CompatibilityGraph) -> tuple[CompatibilityGraph, list[int], list[int]]:
    """The graph renumbered into greedy disjoint packings, the numbering, and S_e.

    Each packing starts at the lowest canonical vertex left, then keeps
    taking the highest vertex left of the same profile that misses every
    member so far.  The packings, concatenated, give perm: packed vertex i
    is canonical vertex perm[i].  The packed graph's rows and its S_e rows
    come from one incidence build over the renumbered sets.
    """
    u, adj, x1 = graph.universe, graph.adjacency, graph.universe.x1_mask
    # a set's profile, as (elements in X1, elements in all)
    profile = [((mask & x1).bit_count(), mask.bit_count()) for mask in graph.vertices]
    same: dict = {}  # profile -> the vertices of that profile
    for v, p in enumerate(profile):
        same[p] = same.get(p, 0) | 1 << v
    left = (1 << graph.size) - 1
    perm = []
    while left:
        v = (left & -left).bit_length() - 1
        free = left & same[profile[v]]
        while free:
            perm.append(v)
            left ^= 1 << v
            free &= left & ~adj[v]
            v = free.bit_length() - 1
    masks = tuple(graph.vertices[v] for v in perm)
    inc = element_incidence(u, masks)
    rows = tuple(row & ~(1 << v) for v, row in enumerate(meet_rows(u, masks, inc)))
    return CompatibilityGraph(u, graph.profiles, masks, rows), perm, inc


def _degeneracy_order(adj: tuple[int, ...]):
    """Repeatedly remove a minimum-degree vertex; ties go to the smaller index.

    Bucket queue (Matula & Beck) whose buckets are bitsets: bucket d holds
    the live vertices of degree d, so the lowest set bit of the lowest
    bucket is the next vertex.  A removal moves the neighbours of each
    bucket down one degree with a single AND.  A generator: each vertex is
    yielded before its removal updates the buckets, so a caller that stops
    after r vertices pays for r - 1 removals.
    """
    buckets: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        buckets[d] = buckets.get(d, 0) | 1 << v
    alive = (1 << len(adj)) - 1
    while alive:
        d = min(buckets)
        low = buckets[d] & -buckets[d]
        v = low.bit_length() - 1
        yield v
        alive ^= low
        _bucket_remove(buckets, d, low)
        nbrs = adj[v] & alive
        for d in sorted(buckets):  # ascending, so a moved vertex moves once
            moved = buckets[d] & nbrs
            if moved:
                _bucket_remove(buckets, d, moved)
                buckets[d - 1] = buckets.get(d - 1, 0) | moved
                nbrs ^= moved
                if not nbrs:
                    break


def _bucket_remove(buckets: dict[int, int], d: int, bits: int) -> None:
    """Take ``bits`` out of bucket d, dropping the bucket when it empties."""
    rest = buckets[d] ^ bits
    if rest:
        buckets[d] = rest
    else:
        del buckets[d]


def _orbit_classes(classes, p: int, parts, inc) -> list[int]:
    """Cut the classes to the vertex bitset p, then split them by each vertex's count in every part.

    The parts are disjoint element bitsets and inc[e] = S_e the incidence
    rows: while a part's elements are read, level c holds the vertices of p
    with c of them.  From ``[p]`` and a clique's atoms this gives the orbits
    of the atom group on p, since two sets lie in one orbit exactly when
    they meet every atom in the same number of elements; from the parent's
    classes and the cuts of v it gives the same (see the module docstring).
    """
    classes = [d for c in classes if (d := c & p)]
    for part in parts:
        levels = [p]
        for e in iter_bits(part):
            s = inc[e]
            levels = [a & ~s | b & s for a, b in zip(levels + [0], [0] + levels)]
        classes = [c & lv for c in classes for lv in levels if c & lv]
    return classes


def _star_node_beats(adj, w: int, star: int, target: int) -> bool:
    """Whether some non-empty clique K inside w has |K| + |star & N(K)| > target.

    star must be a clique, so K and its common neighbours in star form one:
    the largest such clique is the largest clique meeting w.  K grows depth
    first on a stack of (|K|, the vertices of w after K's last one adjacent
    to all of K, K's common neighbours in star), skipping a K that cannot
    reach past target, and the walk stops at the first K that does.
    """
    stack = [(0, w, star)]
    while stack:
        size, cand, common = stack.pop()
        size += 1
        while cand:
            low = cand & -cand
            cand ^= low
            row = adj[low.bit_length() - 1]
            common_v = common & row
            reach = size + common_v.bit_count()
            if reach > target:
                return True
            if (more := cand & row) and reach + more.bit_count() > target:
                stack.append((size, more, common_v))
    return False


def _split_atoms(atoms, vmask: int):
    """The atoms of R + v and the cuts of v, or None when all atoms are singletons.

    Every atom a of R splits into a & v and a - v; the cuts are the parts
    a & v of the atoms that v splits in two.
    """
    out = []
    cuts = []
    wide = False
    for a in atoms:
        inside = a & vmask
        if inside and inside != a:
            cuts.append(inside)
        for part in (inside, a ^ inside):
            if part:
                out.append(part)
                wide = wide or bool(part & (part - 1))
    return (tuple(out), tuple(cuts)) if wide else None


class _CliqueSearch:
    def __init__(self, graph: CompatibilityGraph, inc: list[int], order,
                 constraint: Constraint, budget: SearchBudget | None, symmetry: bool,
                 start: float):
        """Search graph, whose S_e rows are inc, rooting its vertices in the given order.

        The order is an iterable read once, by the root's ``_branch``, and
        only as far as it needs: under symmetry, until every profile class
        has its root.
        """
        self.graph = graph
        self.order = order
        self.constraint = constraint
        self.budget = budget or SearchBudget()
        self.symmetry = symmetry
        self.adj = graph.adjacency
        self.masks = graph.vertices
        u = graph.universe
        self.x1m, self.x2m = u.x1_mask, u.x2_mask
        self.nodes = 0
        self.start = start
        self.best = 0
        self.best_bits = 0  # the incumbent clique, a vertex bitset
        everyone = (1 << graph.size) - 1
        # inc[e] = S_e; avoid[e]: vertices missing element e; nonadj[v]: non-neighbours of v
        self.inc = inc
        self.avoid = [everyone ^ s for s in self.inc]
        self.nonadj = [everyone ^ row ^ (1 << v) for v, row in enumerate(self.adj)]
        if constraint is Constraint.TWO_SIDED:
            # miss1[v] / miss2[v]: neighbours whose intersection with v misses X1 / X2
            self.miss1 = [self._missing(v, self.x1m) for v in range(graph.size)]
            self.miss2 = [self._missing(v, self.x2m) for v in range(graph.size)]

    def _missing(self, v: int, side: int) -> int:
        row = self.adj[v]
        for e in iter_bits(self.masks[v] & side):
            row &= self.avoid[e]
        return row

    def offer(self, size: int, bits: int) -> None:
        """Record a valid clique, given as a vertex bitset; ties keep the lexicographically smaller.

        Of two vertex sets of one size, the smaller ascending index tuple
        is the one holding the lowest vertex in which they differ.
        """
        if size > self.best or size == self.best and (d := bits ^ self.best_bits) & -d & bits:
            self.best = size
            self.best_bits = bits

    def _tick(self) -> None:
        self.nodes += 1
        if self.budget.exceeded(self.nodes, self.start):
            raise _BudgetExhausted

    def _color_order(self, p: int, kmin: int) -> list[tuple[int, int]]:
        """Greedy sequential coloring of the candidate set, ascending color.

        Vertices colored below kmin are left out: the branch loop stops
        before it reaches them.
        """
        nonadj = self.nonadj
        order = []
        color = 1
        while p:
            avail = p
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                if color >= kmin:
                    order.append((v, color))
                p ^= low
                avail &= nonadj[v]
            color += 1
        return order

    def _open(self, rsize: int, and_all: int, miss1: bool, miss2: bool, p: int) -> list:
        """Count the node of the clique R and colour its candidates p.

        The result is the colour order of the candidates that pass the
        colour bound; it is empty when the node is pruned.  and_all is the
        intersection of R's sets; miss1 / miss2 record that some pair of R
        already misses X1 / X2.
        """
        self._tick()
        if not p:
            return []
        if self.constraint is not Constraint.ANY:
            # every valid extension holds a candidate of w = p & avoid[e]
            # for each live element e of and_all (one on a side that no pair
            # of R misses yet); the star part p - w, all holding e, is a clique
            live = and_all
            if miss1:
                live &= self.x2m
            if miss2:
                live &= self.x1m
            avoid = self.avoid
            w, wsize = 0, STAR_NODE_MAX + 1
            while live:
                low = live & -live
                we = p & avoid[low.bit_length() - 1]
                if not we:
                    return []
                if (c := we.bit_count()) < wsize:
                    w, wsize = we, c
                live ^= low
            if w and not _star_node_beats(self.adj, w, p ^ w, self.best - rsize):
                return []
        return self._color_order(p, self.best - rsize + 1)

    def _branch(self, order, rbits: int, rsize: int, and_all: int, miss1: bool, miss2: bool,
                p: int, orbit, above: int):
        """Branch on the candidates p of the clique R (bitset rbits, rsize members).

        order yields (v, colour) in branch order: a node's colour order
        reversed, or at the empty clique every vertex with colour m.  Each
        child is opened here, and yielded as a generator only when it has a
        candidate to branch on.  orbit, when not None, is (atoms, cuts,
        classes): R's atoms, the cuts of R's last vertex and the parent's
        classes, and p is a union of R's orbit classes.  The node refines
        its own classes from them before its first branch (a node pruned at
        ``_open`` never pays), and after branching on v, v's whole class
        leaves p (orbital branching).  The node stops once p is empty, so it
        reads order no further than it needs.

        above holds the vertices that ancestors branched on before the
        branch that leads here and that are adjacent to every vertex added
        since.  v is dropped unbranched when an earlier branch a, of this
        node or in above, has v and all of v's candidates pv as neighbours:
        R + a + v + any clique in pv is a larger clique that a's subtree
        already covered, and it is valid since the constraints are
        monotone, so v's subtree holds no clique of the incumbent's size.
        v's child inherits the members of above and of this node's earlier
        branches that are adjacent to v.
        """
        if orbit is not None:
            atoms, cuts, classes = orbit
            classes = _orbit_classes(classes, p, cuts, self.inc)
        two_sided = self.constraint is Constraint.TWO_SIDED
        adj, masks, nonadj = self.adj, self.masks, self.nonadj
        csize = rsize + 1
        done = 0  # the vertices this node has branched on
        for v, color in order:
            if rsize + color <= self.best:
                return
            bit = 1 << v
            if not p & bit:
                continue  # in the class of a vertex already branched on
            pv = p & adj[v]
            # no dominance at the empty clique: testing each root against every
            # earlier one cut (8,8){(2,2)} ANY to 853 nodes from 1,048, ~40% slower
            dom = carry = (above | done) & adj[v] if rsize else 0
            while dom and pv & nonadj[(dom & -dom).bit_length() - 1]:
                dom &= dom - 1
            if not dom:  # no earlier branch a has pv inside adj[a]: branch on v
                done |= bit
                child_and = and_all & masks[v]
                if two_sided:
                    cm1 = miss1 or bool(self.miss1[v] & rbits)
                    cm2 = miss2 or bool(self.miss2[v] & rbits)
                else:
                    cm1 = cm2 = False
                child = rbits | bit
                if csize >= self.best and self._valid(child_and, cm1, cm2):
                    self.offer(csize, child)
                child_order = self._open(csize, child_and, cm1, cm2, pv)
                if child_order:
                    child_orbit = None
                    if orbit is not None and (split := _split_atoms(atoms, masks[v])):
                        child_orbit = (*split, classes)
                    yield self._branch(reversed(child_order), child, csize, child_and, cm1,
                                       cm2, pv, child_orbit, carry)
            if orbit is None:
                p ^= bit
            else:  # v's whole class leaves p
                p ^= next(c for c in classes if c & bit)
            if not p:
                return

    def _valid(self, and_all: int, miss1: bool, miss2: bool) -> bool:
        if self.constraint is Constraint.ANY:
            return True
        if self.constraint is Constraint.NONTRIVIAL:
            return and_all == 0
        return miss1 and miss2

    def run(self) -> tuple[bool, int]:
        """Search from the empty clique depth first; whether it finished, and the nodes ticked.

        The empty clique's node is ticked once (which checks the time set-up
        took) and branches on every vertex, read lazily in the given order.
        Their colour is m, the vertex count, so the bound stops them only
        once the incumbent holds every vertex.  Under symmetry its atoms are
        X1 and X2, so its classes are the profile classes.  The stack holds one ``_branch`` generator per clique on
        the current path that has a candidate to branch on; each yields its
        children's generators in branch order, so the depth of the clique
        costs no Python recursion.
        """
        m = self.graph.size
        everyone = (1 << m) - 1
        orbit = None
        if self.symmetry:
            parts = (self.x1m, self.x2m)
            orbit = (parts, parts, [everyone])
        try:
            self._tick()
            stack = [self._branch(((v, m) for v in self.order), 0, 0,
                                  self.graph.universe.full_mask, False, False, everyone, orbit, 0)]
            push, pop = stack.append, stack.pop
            while stack:
                for child in stack[-1]:
                    push(child)
                    break
                else:
                    pop()
        except _BudgetExhausted:
            return False, self.nodes
        return True, self.nodes


def _seed_indices(graph: CompatibilityGraph, seed: Family, constraint: Constraint) -> int:
    """The seed family as a bitset of graph's vertices, once checked."""
    if seed.universe != graph.universe:
        raise ValueError("seed family lives in a different universe")
    index_of = {mask: i for i, mask in enumerate(graph.vertices)}
    try:
        bits = sum(1 << index_of[m] for m in seed.sets)
    except KeyError:
        raise ValueError("seed family contains a set outside the candidate profiles") from None
    if not is_intersecting(seed):
        raise ValueError("seed family is not intersecting")
    if not _satisfies(seed, constraint):
        raise ValueError(f"seed family violates the {constraint.value} constraint")
    return bits


def _satisfies(f: Family, constraint: Constraint) -> bool:
    if constraint is Constraint.ANY:
        return True
    if constraint is Constraint.NONTRIVIAL:
        return not is_trivially_intersecting(f)
    return is_two_sided_intersecting(f)


def max_intersecting(u: Universe, profiles, constraint: Constraint = Constraint.ANY,
                     budget: SearchBudget | None = None, *, seed: Family | None = None,
                     symmetry: bool = False, graph: CompatibilityGraph | None = None) -> SearchResult:
    """Exact maximum intersecting family under the given structural constraint.

    The search runs on the graph renumbered by ``_packed``, rooting in the
    degeneracy order of the canonical graph.  Deterministic for fixed
    inputs: ties between maximum witnesses keep the lexicographically
    smallest vertex set found, in that search numbering.  A given graph
    must be ``build_graph(u, profiles)``'s.  Exhausting the budget returns
    the incumbent with proven_optimal False, never an error; the time limit
    counts from the call's start, graph set-up included.  When no family
    satisfies the constraint the result has max_size 0 and an empty witness.
    """
    start = time.perf_counter()
    if graph is None:
        graph = build_graph(u, profiles)
    elif graph.universe != u or graph.profiles != normalize_profiles(u, profiles):
        raise ValueError("graph was built for another universe or other profiles")
    if constraint is Constraint.TWO_SIDED and not u.two_part:
        raise ValueError("two-sided constraint needs a two-part universe")
    packed, perm, inc = _packed(graph)
    index = {v: i for i, v in enumerate(perm)}
    order = (index[v] for v in _degeneracy_order(graph.adjacency))
    search = _CliqueSearch(packed, inc, order, constraint, budget, symmetry, start)
    if seed is not None:
        bits = _seed_indices(packed, seed, constraint)
        search.offer(bits.bit_count(), bits)
    elif constraint is Constraint.ANY:
        # the largest single-element star: the first widest incidence row S_e
        star = max(inc, key=int.bit_count)
        if star:
            search.offer(star.bit_count(), star)
    completed, nodes = search.run()
    members = (packed.vertices[i] for i in iter_bits(search.best_bits))
    witness = Family(u, tuple(sorted(members, key=sort_key)))
    return SearchResult(search.best, witness, completed, nodes, time.perf_counter() - start)


def exhaustive_oracle(u: Universe, profiles, constraint: Constraint = Constraint.ANY) -> int:
    """Maximum size by brute force over all candidate subsets, checked set-wise.

    Deliberately ignores the compatibility graph and the solver: every
    subset is tested directly against the intersection predicates.
    """
    _, masks = _capped_candidates(u, profiles, ORACLE_CAP, "oracle")
    m = len(masks)
    if constraint is Constraint.TWO_SIDED and not u.two_part:
        raise ValueError("two-sided constraint needs a two-part universe")
    x1m, x2m, full = u.x1_mask, u.x2_mask, u.full_mask
    best = 0
    for sub in range(1, 1 << m):
        if sub.bit_count() <= best:
            continue
        chosen = [masks[i] for i in iter_bits(sub)]
        ok = True
        for i in range(len(chosen)):
            a = chosen[i]
            for j in range(i + 1, len(chosen)):
                if not a & chosen[j]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if constraint is Constraint.NONTRIVIAL:
            acc = full
            for a in chosen:
                acc &= a
            if acc:
                continue
        elif constraint is Constraint.TWO_SIDED:
            miss1 = miss2 = False
            for i in range(len(chosen)):
                for j in range(i, len(chosen)):
                    inter = chosen[i] & chosen[j]
                    miss1 = miss1 or not inter & x1m
                    miss2 = miss2 or not inter & x2m
            if not (miss1 and miss2):
                continue
        best = len(chosen)
    return best

