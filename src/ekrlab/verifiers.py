"""Verifiers for the structural facts behind the double-counting machinery.

Each check validates its stated hypotheses, then covers every instance
inside the given parameter box (exhaustive) or draws random instances with a
seeded generator until ``trials`` satisfy the hypothesis (sampled).  A
passing report has an empty counterexample list; sampled runs also record
how many draws failed the hypothesis.  Exhaustive runs seed the random
weights of check c3 with 0, so every mode is reproducible.

Rectangles proj-intersect exactly when their I-points in X1 plus J-points in
X2 meet, so the proj-intersecting families are the cliques of the
``search.meet_rows`` rows: listed by ``_cliques`` (exhaustive), or grown by
uniform picks among the candidates compatible with every member so far
(sampled), the law of keeping each compatible vertex of a random order.  A
family is judged on its member bitset: its blocking pairs are the pairs of
the space's ``blocking_rows`` inside it, and checks 9 and c3 read its class
sizes alone (c3's hypotheses hold by construction).

Exhaustive checks 1, 2 and 4 count their instances and list only those that
can fail: the k- and (k+1)-cliques of check 1's distance graph, the
(k+b+1)-cliques of check 2's near graph (distance <= b), and check 4's thirds
whose v misses the base and whose u meets both I-projections.

Check ids (the CLI exposes the same numbering):

  1   distance-graph cliques: max clique of the <=(k-1)-distance graph on
      Z_n is k, and every k-clique is consecutive
  2   interval dispersion: any k+b+1 distinct length-k intervals on Z_n
      contain a pair at distance >= b+1
  3   blocking-pair existence: any proj-intersecting family of >= 9b^2
      k x l rectangles contains a blocking pair
  4   third-rectangle overlap: a blocking pair's base meets the second
      projection of any small rectangle proj-intersecting both members
  5   distinct-base collapse: l shared-J blocking-pair bases force a
      common point in every J-projection
  6   multiplicity split: between 1 and l-1 distinct shared-J bases give
      |R| <= 4b^2 + (l-1) n1
  7   no mixed blocking pairs: a proj-intersecting union of two shape
      classes never contains both blocking-pair kinds
  8   per-shape bounds: a shared-J blocking pair in one class bounds every
      class by < 9b^2, <= 4b^2+(l_i-1)n1 or <= l_i n1 (mirrored for
      shared-I bases)
  9   large-ground bounds: with 9b^2 < n1, n2 one of the two uniform
      per-shape bounds holds across all classes
  c1  total-count bound: |R| <= l n1 under the hypotheses of check 5
  c2  five-way bound: one of the five size bounds always holds
  c3  weighted-sum bound: positive weights preserve the check-9 bounds
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, inf

from .cyclic import (
    I_BASE,
    J_BASE,
    Rectangle,
    _arc_mask,
    all_intervals,
    blocking_rows,
    interval_distance,
    point_distance,
)
from .doublecount import weighted_sums
from .families import Universe, iter_bits, mask_of
from .search import meet_rows

EXHAUSTIVE_CAP = 2_000_000
SAMPLE_FACTOR = 200

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


@dataclass
class VerificationReport:
    check: str
    params: dict
    mode: str
    instances: int
    counterexamples: list
    hypothesis_rejections: int
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {"lemma": self.check, "params": self.params, "mode": self.mode,
                "instances": self.instances, "counterexamples": self.counterexamples,
                "hypothesis_rejections": self.hypothesis_rejections,
                "elapsed_ms": round(self.elapsed_s * 1000.0, 3)}


class InfeasibleExhaustive(ValueError):
    """Raised when the exhaustive range is too large; use sampled mode instead."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"hypothesis failed: {what}")


def _param(params: dict, *names: str) -> list:
    """The named parameters in order; a missing one is a usage error."""
    for name in names:
        if name not in params:
            raise ValueError(f"missing parameter {name!r}")
    return [params[name] for name in names]


def _rect_json(rects) -> list[list[int]]:
    return sorted([r.i.start, r.i.length, r.j.start, r.j.length] for r in rects)


def _drive(mode, rng, trials, everything, draw, test):
    """Run ``test`` over the instances and return (instances, counterexamples, rejections).

    ``test(instance)`` returns None when the instance fails the hypothesis,
    True when the conclusion holds, and otherwise a counterexample record.
    Exhaustive mode tests every instance of ``everything``; sampled mode
    tests ``draw(rng)`` until ``trials`` instances satisfy the hypothesis or
    ``trials * SAMPLE_FACTOR`` draws are spent.
    """
    exhaustive = mode == EXHAUSTIVE
    source = everything if exhaustive else (draw(rng) for _ in range(trials * SAMPLE_FACTOR))
    target = inf if exhaustive else trials
    instances, bad, rejections = 0, [], 0
    for instance in source:
        out = test(instance)
        if out is None:
            rejections += 1
            continue
        instances += 1
        if out is not True:
            bad.append(out)
        if instances == target:
            break
    return instances, bad, 0 if exhaustive else rejections


def _proj_rows(n1: int, n2: int, rects: list[Rectangle]) -> list[int]:
    """For each rectangle, the bitset of the other rectangles it proj-intersects."""
    masks = [_arc_mask(r.i) | _arc_mask(r.j) << n1 for r in rects]
    return [row & ~(1 << v) for v, row in enumerate(meet_rows(Universe(n1, n2), masks))]


def _cliques(rows: list[int], min_size: int, max_size: int | None = None):
    """Every clique of min_size to max_size vertices, ``rows[v]`` being v's neighbours.

    Cliques come as ascending index tuples, in lexicographic order; the
    clique after the first ``EXHAUSTIVE_CAP`` raises ``InfeasibleExhaustive``.
    """

    def rec(chosen: list[int], cand: int):
        if len(chosen) >= min_size:
            yield tuple(chosen)
            if len(chosen) == max_size:
                return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            if len(chosen) + 1 + cand.bit_count() < min_size:
                return
            chosen.append(v)
            yield from rec(chosen, cand & rows[v])
            chosen.pop()

    for seen, clique in enumerate(rec([], (1 << len(rows)) - 1), 1):
        if seen > EXHAUSTIVE_CAP:
            raise InfeasibleExhaustive(
                f"more than {EXHAUSTIVE_CAP} hypothesis-satisfying families; use sampled mode")
        yield clique


def _sample_family(rng: random.Random, rows: list[int], size_range: tuple[int, int]) -> int:
    """The bitset of a random proj-intersecting family grown toward a random target size.

    A pick makes ``rng.randrange(n)``'s getrandbits calls for the n candidates
    left and takes the r-th lowest: r itself while they are the whole space,
    then the length of what ``bin(cand)`` keeps after its top n - r set bits.
    """
    target, n = rng.randint(*size_range), len(rows)
    getrandbits = rng.getrandbits
    mask, cand, size = 0, (1 << n) - 1, 0
    while cand and size < target:
        r = getrandbits(k := n.bit_length())
        while r >= n:
            r = getrandbits(k)
        v = len(bin(cand).split("1", n - r)[-1]) if size else r
        mask |= 1 << v
        cand &= rows[v]
        size += 1
        n = cand.bit_count()
    return mask


def _shape_space(n1: int, n2: int, shapes) -> list[Rectangle]:
    """Every rectangle of the shapes, built in sorted order from the sorted sides."""
    i_sides = sorted({iv for k, _ in shapes for iv in all_intervals(n1, k)})
    j_sides = sorted({iv for _, l in shapes for iv in all_intervals(n2, l)})
    return [Rectangle(i, j) for i in i_sides for j in j_sides if (i.length, j.length) in shapes]


class _BlockingRows:
    """Blocking-pair rows over a sorted shape space, built once per check.

    ``rows[kind][v]`` is the bitset of rectangles forming a ``kind`` pair with
    rectangle v, from ``blocking_rows``; ``j_arcs[v]`` is the bitset of v's
    J-points, which tells distinct J-intervals apart.
    """

    def __init__(self, rects: list[Rectangle], b: int):
        self.rows = dict(zip((J_BASE, I_BASE), blocking_rows(rects, b)))
        self.j_arcs = [_arc_mask(r.j) for r in rects]
        self.shape_masks: dict[tuple[int, int], int] = {}
        for v, r in enumerate(rects):
            self.shape_masks[r.shape] = self.shape_masks.get(r.shape, 0) | 1 << v

    def kinds(self, mask: int) -> set[str]:
        """The blocking-pair kinds with both ends inside ``mask``."""
        return {kind for kind, row in self.rows.items()
                if any(row[v] & mask for v in iter_bits(mask))}

    def j_bases(self, mask: int) -> int:
        """How many distinct shared-J bases the blocking pairs inside ``mask`` have."""
        row, j_arcs = self.rows[J_BASE], self.j_arcs
        return len({j_arcs[v] for v in iter_bits(mask) if row[v] & mask})

    def class_sizes(self, mask: int) -> dict[tuple[int, int], int]:
        """Shape -> member count for every shape class present in ``mask``."""
        sizes = {s: (mask & m).bit_count() for s, m in self.shape_masks.items()}
        return {s: c for s, c in sizes.items() if c}


def _family_check(params, mode, rng, trials, shapes, test, min_size: int = 2):
    """Drive ``test(mask, blocking)`` over proj-intersecting families of the shapes.

    ``mask`` is the family's bitset over the sorted shape space and
    ``blocking`` the space's ``_BlockingRows``; ``test`` returns None when the
    family fails the hypothesis, else whether the conclusion holds.  Families
    smaller than ``min_size`` are rejected; a smaller space has no instance.
    """
    n1, n2, b = _param(params, "n1", "n2", "b")
    rects = _shape_space(n1, n2, shapes)
    if len(rects) < min_size:
        return 0, [], 0
    rows = _proj_rows(n1, n2, rects)
    blocking = _BlockingRows(rects, b)

    def judge(mask):
        if mask.bit_count() < min_size:
            return None
        holds = test(mask, blocking)
        return {"family": _rect_json(rects[v] for v in iter_bits(mask))} if holds is False else holds

    return _drive(mode, rng, trials, map(mask_of, _cliques(rows, min_size)),
                  lambda rng: _sample_family(rng, rows, (min_size, len(rects))), judge)


# ---------------------------------------------------------------- check 1

def _check_distance_graph_cliques(params, mode, rng, trials):
    n, k = _param(params, "n", "k")
    _require(2 <= 2 * k < n, "2 <= 2k < n")
    bad = []

    def is_clique(vs):  # vs ascending
        return all(point_distance(u, v, n) <= k - 1 for u, v in combinations(vs, 2))

    def judge(vs):
        """Record the clique ``vs`` (ascending) if it is larger than k or not consecutive."""
        if len(vs) > k:
            bad.append({"kind": "clique larger than k", "vertices": list(vs)})
        elif not any(all((s + i) % n in vs for i in range(k)) for s in vs):
            bad.append({"kind": "non-consecutive k-clique", "vertices": list(vs)})

    if mode == EXHAUSTIVE:
        subsets = comb(n, k + 1) + comb(n, k)
        if subsets > EXHAUSTIVE_CAP:
            raise InfeasibleExhaustive("too many subsets; use sampled mode")
        for s in range(n):
            run = sorted((s + i) % n for i in range(k))
            if not is_clique(run):
                bad.append({"kind": "consecutive run not a clique", "vertices": run})
        near = [0] * n  # adjacency rows of the <=(k-1)-distance graph
        for u, v in combinations(range(n), 2):
            if point_distance(u, v, n) <= k - 1:
                near[u] |= 1 << v
                near[v] |= 1 << u
        # every (k+1)- and k-subset is an instance; only the cliques among them can fail
        for vs in _cliques(near, k, k + 1):
            judge(vs)
        return n + subsets, bad, 0
    # two draws per trial: one (k+1)-subset, one k-subset
    for _ in range(trials):
        for size in (k + 1, k):
            vs = tuple(sorted(rng.sample(range(n), size)))
            if is_clique(vs):
                judge(vs)
    return 2 * trials, bad, 0


# ---------------------------------------------------------------- check 2

def _check_interval_dispersion(params, mode, rng, trials):
    n, k, b = _param(params, "n", "k", "b")
    _require(k >= 1 and b >= 1, "k, b positive")
    _require(2 * (k + b) <= n, "2(k+b) <= n")
    intervals = all_intervals(n, k)
    need = k + b + 1

    def record(sub):
        return {"intervals": sorted((intervals[p].start, intervals[p].length) for p in sub)}

    if mode == EXHAUSTIVE:
        subsets = comb(len(intervals), need)
        if subsets > EXHAUSTIVE_CAP:
            raise InfeasibleExhaustive("too many interval subsets; use sampled mode")
        # near[p]: the intervals within distance b of interval p, p itself included
        near = [mask_of(q for q, other in enumerate(intervals) if interval_distance(iv, other) <= b)
                for iv in intervals]
        # every need-subset is an instance; it fails exactly when it is a near-clique
        return subsets, [record(sub) for sub in _cliques(near, need, need)], 0

    def test(sub):  # passes when some two of the intervals lie far apart
        far = any(interval_distance(intervals[p], intervals[q]) > b for p, q in combinations(sub, 2))
        return True if far else record(sub)

    # sampling positions draws the same random numbers as sampling the intervals
    return _drive(mode, rng, trials, (), lambda rng: rng.sample(range(len(intervals)), need), test)


# ---------------------------------------------------------------- check 3

def _check_blocking_pair_existence(params, mode, rng, trials):
    n1, n2, k, l, b = _param(params, "n1", "n2", "k", "l", "b")
    _require(1 <= k <= b and 1 <= l <= b, "k, l <= b")
    _require(2 * (k + b) <= n1, "2(k+b) <= n1")
    _require(2 * (l + b) <= n2, "2(l+b) <= n2")
    return _family_check(params, mode, rng, trials, [(k, l)],
                         lambda mask, blocking: bool(blocking.kinds(mask)),
                         min_size=9 * b * b)


# ---------------------------------------------------------------- check 4

def _check_third_rectangle_overlap(params, mode, rng, trials):
    n1, n2, k, l, b = _param(params, "n1", "n2", "k", "l", "b")
    _require(1 <= k <= b and 1 <= l <= b, "k, l <= b")

    def arcs(intervals):  # each interval with the bitset of its elements
        return [(iv, _arc_mask(iv)) for iv in intervals]

    i_ivs = all_intervals(n1, k)
    j_arcs = arcs(all_intervals(n2, l))
    # the I-intervals are the rotations of one, so each has as many far partners as the first
    far_count = len(i_ivs) * sum(interval_distance(i_ivs[0], iv) >= b + 1 for iv in i_ivs[1:]) // 2
    _require(far_count > 0, "some I-interval pair at distance >= b+1 must exist")
    u_arcs = arcs(iv for s in range(1, b + 1) for iv in all_intervals(n1, s))
    v_arcs = arcs(iv for s in range(1, b + 1) for iv in all_intervals(n2, s))
    if mode == EXHAUSTIVE and len(j_arcs) * far_count * len(u_arcs) * len(v_arcs) > EXHAUSTIVE_CAP:
        raise InfeasibleExhaustive("too many triples; use sampled mode")
    far_pairs = [(a1, a2) for a1, a2 in combinations(arcs(i_ivs), 2)
                 if interval_distance(a1[0], a2[0]) >= b + 1]

    def record(j0, i1, i2, uu, vv):
        return {"base": (j0.start, j0.length),
                "pair": _rect_json([Rectangle(i1, j0), Rectangle(i2, j0)]),
                "third": (uu.start, uu.length, vv.start, vv.length)}

    if mode == EXHAUSTIVE:  # an instance: a blocking pair sharing the base j0, a third u x v
        # a third whose v meets the base passes; one whose v misses it meets
        # the hypothesis only when u meets both I-projections, and then fails
        both_u = [[uu for uu, mu in u_arcs if m1 & mu and m2 & mu] for (_, m1), (_, m2) in far_pairs]
        missing = [(j0, [vv for vv, mv in v_arcs if not mj & mv]) for j0, mj in j_arcs]
        instances = sum((len(v_arcs) - len(vs)) * len(u_arcs) * len(far_pairs)
                        + len(vs) * sum(map(len, both_u)) for _, vs in missing)
        return instances, [record(j0, i1, i2, uu, vv) for j0, vs in missing
                           for ((i1, _), (i2, _)), us in zip(far_pairs, both_u)
                           for uu in us for vv in vs], 0

    def draw(rng):
        j0 = rng.choice(j_arcs)
        a1, a2 = rng.choice(far_pairs)
        return (j0, a1, a2), (rng.choice(u_arcs), rng.choice(v_arcs))

    def test(instance):
        ((j0, mj), (i1, m1), (i2, m2)), ((uu, mu), (vv, mv)) = instance
        if mj & mv:  # the third meets the shared base, so it proj-intersects both
            return True
        if not (m1 & mu and m2 & mu):
            return None
        return record(j0, i1, i2, uu, vv)

    return _drive(mode, rng, trials, (), draw, test)


# ------------------------------------------------------- checks 5, 6, c1, c2

def _single_shape(params):
    n1, n2, k, l, b = _param(params, "n1", "n2", "k", "l", "b")
    _require(1 <= k <= b and 1 <= l <= b, "k, l <= b")
    _require(2 * (k + b) < n1, "2(k+b) < n1")
    _require(2 * (l + b) < n2, "2(l+b) < n2")
    return n1, n2, k, l, b


def _class_bound(size: int, b: int, width: int, n: int) -> bool:
    """The per-class size bound: size < 9b^2, <= 4b^2 + (width-1) n or <= width n."""
    return size < 9 * b * b or size <= 4 * b * b + (width - 1) * n or size <= width * n


def _check_distinct_base_collapse(params, mode, rng, trials):
    n1, n2, k, l, b = _single_shape(params)

    def test(mask, blocking):
        if blocking.j_bases(mask) < l:
            return None
        common = -1  # the J-points every member shares
        for v in iter_bits(mask):
            common &= blocking.j_arcs[v]
        return common != 0

    return _family_check(params, mode, rng, trials, [(k, l)], test)


def _check_total_count_bound(params, mode, rng, trials):
    n1, n2, k, l, b = _single_shape(params)

    def test(mask, blocking):
        return None if blocking.j_bases(mask) < l else mask.bit_count() <= l * n1

    return _family_check(params, mode, rng, trials, [(k, l)], test)


def _check_multiplicity_split(params, mode, rng, trials):
    n1, n2, k, l, b = _single_shape(params)

    def test(mask, blocking):
        if not 1 <= blocking.j_bases(mask) <= l - 1:
            return None
        return mask.bit_count() <= 4 * b * b + (l - 1) * n1

    return _family_check(params, mode, rng, trials, [(k, l)], test)


def _check_five_way_bound(params, mode, rng, trials):
    n1, n2, k, l, b = _single_shape(params)

    def test(mask, blocking):
        return _class_bound(mask.bit_count(), b, l, n1) or _class_bound(mask.bit_count(), b, k, n2)

    return _family_check(params, mode, rng, trials, [(k, l)], test)


# ------------------------------------------------------- checks 7, 8, 9, c3

def _multi_shape(params, ground, what: str, max_shapes: int | None = None):
    """n1, n2, b and the shapes, requiring ground(b) < n1 and ground(b) < n2."""
    n1, n2, b = _param(params, "n1", "n2", "b")
    _require(ground(b) < n1 and ground(b) < n2, f"{what} < n1 and {what} < n2")
    shapes = [tuple(s) for s in _param(params, "shapes")[0]]
    _require(len(shapes) >= 1, "at least one shape")
    if max_shapes is not None:
        _require(len(shapes) <= max_shapes, f"at most {max_shapes} shapes")
    for i, (k, l) in enumerate(shapes):
        _require(1 <= k <= b and 1 <= l <= b, f"shape ({k},{l}) within 1..b")
        if (k, l) in shapes[:i]:  # the shape space would merge the copies
            raise ValueError(f"shape ({k},{l}) is listed twice")
    return n1, n2, b, shapes


def _check_no_mixed_blocking_pairs(params, mode, rng, trials):
    n1, n2, b, shapes = _multi_shape(params, lambda b: 4 * b, "4b", max_shapes=2)

    def test(mask, blocking):
        kinds = blocking.kinds(mask)
        return not (J_BASE in kinds and I_BASE in kinds)

    return _family_check(params, mode, rng, trials, shapes, test)


def _check_per_shape_bounds(params, mode, rng, trials):
    n1, n2, b, shapes = _multi_shape(params, lambda b: 4 * b, "4b")

    def test(mask, blocking):
        # each shape class on its own: a J-pair across two classes sharing l does not count
        kinds = set()
        for shape_mask in blocking.shape_masks.values():
            kinds |= blocking.kinds(mask & shape_mask)
        if not kinds:
            return None
        sizes = blocking.class_sizes(mask)
        j_ok = all(_class_bound(size, b, l_i, n1) for (k_i, l_i), size in sizes.items())
        i_ok = all(_class_bound(size, b, k_i, n2) for (k_i, l_i), size in sizes.items())
        return (J_BASE not in kinds or j_ok) and (I_BASE not in kinds or i_ok)

    return _family_check(params, mode, rng, trials, shapes, test)


def _check_large_ground_bounds(params, mode, rng, trials):
    n1, n2, b, shapes = _multi_shape(params, lambda b: 9 * b * b, "9b^2")

    def test(mask, blocking):
        sizes = blocking.class_sizes(mask)
        return (all(size <= l_i * n1 for (k_i, l_i), size in sizes.items())
                or all(size <= k_i * n2 for (k_i, l_i), size in sizes.items()))

    return _family_check(params, mode, rng, trials, shapes, test)


def _check_weighted_sum_bound(params, mode, rng, trials):
    n1, n2, b, shapes = _multi_shape(params, lambda b: 9 * b * b, "9b^2")

    def test(mask, blocking):
        lambdas = {s: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for s in shapes}
        lhs, rhs = weighted_sums(blocking.class_sizes(mask), lambdas, n1, n2)
        return lhs <= rhs

    return _family_check(params, mode, rng, trials, shapes, test)


CHECKS = {
    "1": _check_distance_graph_cliques,
    "2": _check_interval_dispersion,
    "3": _check_blocking_pair_existence,
    "4": _check_third_rectangle_overlap,
    "5": _check_distinct_base_collapse,
    "6": _check_multiplicity_split,
    "7": _check_no_mixed_blocking_pairs,
    "8": _check_per_shape_bounds,
    "9": _check_large_ground_bounds,
    "c1": _check_total_count_bound,
    "c2": _check_five_way_bound,
    "c3": _check_weighted_sum_bound,
}


def verify_check(check_id: str, params: dict, mode: str = EXHAUSTIVE,
                 seed: int | None = None, trials: int = 1000) -> VerificationReport:
    """Run one verifier and return its report (passed == no counterexamples).

    Sampled mode needs a seed and trials >= 1; exhaustive mode seeds with 0 if given none.
    """
    if check_id not in CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {sorted(CHECKS)}")
    if mode not in (EXHAUSTIVE, SAMPLED):
        raise ValueError(f"mode must be {EXHAUSTIVE!r} or {SAMPLED!r}")
    if mode == SAMPLED and (seed is None or trials < 1):
        raise ValueError(f"sampled mode needs a seed and trials >= 1, got {seed=}, {trials=}")
    rng = random.Random(0 if seed is None else seed)
    start = time.perf_counter()
    instances, bad, rejections = CHECKS[check_id](params, mode, rng, trials)
    return VerificationReport(
        check=check_id,
        params=dict(params),
        mode=mode,
        instances=instances,
        counterexamples=sorted(bad, key=repr),
        hypothesis_rejections=rejections,
        elapsed_s=time.perf_counter() - start,
    )
