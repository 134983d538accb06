"""Extremal constructions and conjecture hunting.

The constructions realize the product-type ceilings of ``bounds``: a
punctured star in one part (all sets through x meeting a fixed set K, plus
K itself) crossed with everything in the other for the non-trivial case,
and the anchored two-step product construction for the two-sided case.
The hunt compares exact search maxima against those ceilings over a
parameter grid and persists one JSON line per cell so interrupted sweeps
resume.  The ceilings are not maxima: the two-part Hilton-Milner family
H(x, T) (every (k, l)-set through x meeting a fixed (k, l)-set T with x
not in T, plus T) exceeds both at k = l = 2, n1 = n2 >= 5, and the hunt reports such cells
as ``counterexample``.  The cross-intersecting maximum is solved exactly by
König's theorem on the bipartite disjointness graph of the k-sets.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .bounds import binomial, hm_bound, nontrivial_bound, two_sided_bound
from .families import (
    Family,
    Profile,
    Universe,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    iter_bits,
    mask_of,
    sort_key,
)
from .search import Constraint, SearchBudget, max_intersecting, meet_rows


class ConstructionKind(Enum):
    HM_ONE_PART = "hm-one-part"
    NONTRIVIAL_X1 = "nontrivial-side-x1"
    NONTRIVIAL_X2 = "nontrivial-side-x2"
    TWO_SIDED_X1 = "two-sided-x1-anchor"
    TWO_SIDED_X2 = "two-sided-x2-anchor"


@dataclass(frozen=True)
class ConstructionSpec:
    kind: ConstructionKind
    universe: Universe
    profile: Profile
    x: int
    k_set: tuple[int, ...]
    l_set: tuple[int, ...] = ()
    l_prime: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.x in self.k_set and self.kind in (
                ConstructionKind.HM_ONE_PART,
                ConstructionKind.NONTRIVIAL_X1,
                ConstructionKind.NONTRIVIAL_X2):
            raise ValueError("the fixed element x must avoid K")
        if self.kind in (ConstructionKind.TWO_SIDED_X1, ConstructionKind.TWO_SIDED_X2):
            if set(self.l_set) & set(self.l_prime):
                raise ValueError("L and L' must be disjoint")
            if self.x not in self.l_prime:
                raise ValueError("x must lie in L'")
            if self.x in self.l_set:
                raise ValueError("x must avoid L")


def _punctured_star(elements: Iterable[int], size: int, x: int,
                    k_set: tuple[int, ...]) -> list[int]:
    """K plus every size-``size`` subset of ``elements`` through x meeting K."""
    kmask = mask_of(k_set)
    xbit = 1 << x
    out = [kmask]
    for sub in combinations(elements, size):
        m = mask_of(sub)
        if m & xbit and m & kmask:
            out.append(m)
    return out


def canonical_spec(kind: ConstructionKind, u: Universe, p: tuple[int, int]) -> ConstructionSpec:
    """A deterministic parameter choice: x first in the anchor part, K/L/L' right after."""
    k, l = Profile(*p)
    if kind is ConstructionKind.HM_ONE_PART:
        return ConstructionSpec(kind, u, Profile(k, l), 0, tuple(range(1, k + 1)))
    if kind is ConstructionKind.NONTRIVIAL_X1:
        return ConstructionSpec(kind, u, Profile(k, l), 0, tuple(range(1, k + 1)))
    if kind is ConstructionKind.NONTRIVIAL_X2:
        return ConstructionSpec(kind, u, Profile(k, l), u.n1, tuple(range(u.n1 + 1, u.n1 + l + 1)))
    if kind is ConstructionKind.TWO_SIDED_X2:
        x = u.n1
        l_prime = tuple(range(u.n1, u.n1 + l))
        l_set = tuple(range(u.n1 + l, u.n1 + 2 * l))
        return ConstructionSpec(kind, u, Profile(k, l), x, tuple(range(k)), l_set, l_prime)
    if kind is ConstructionKind.TWO_SIDED_X1:
        x = 0
        l_prime = tuple(range(k))
        l_set = tuple(range(k, 2 * k))
        return ConstructionSpec(kind, u, Profile(k, l), x,
                                tuple(range(u.n1, u.n1 + l)), l_set, l_prime)
    raise ValueError(f"unknown kind {kind}")


def expected_construction_size(kind: ConstructionKind, u: Universe, p: tuple[int, int]) -> int:
    """Closed form for the construction size (a term of the conjectured bounds)."""
    k, l = Profile(*p)
    if kind is ConstructionKind.HM_ONE_PART:
        return hm_bound(u.n1, k)
    if kind is ConstructionKind.NONTRIVIAL_X1:
        return hm_bound(u.n1, k) * binomial(u.n2, l)
    if kind is ConstructionKind.NONTRIVIAL_X2:
        return binomial(u.n1, k) * hm_bound(u.n2, l)
    if kind is ConstructionKind.TWO_SIDED_X2:
        return (binomial(u.n2 - 1, l - 1) - binomial(u.n2 - l - 1, l - 1)) * binomial(u.n1, k) \
            + 1 + binomial(u.n1, k) - binomial(u.n1 - k, k)
    if kind is ConstructionKind.TWO_SIDED_X1:
        return (binomial(u.n1 - 1, k - 1) - binomial(u.n1 - k - 1, k - 1)) * binomial(u.n2, l) \
            + 1 + binomial(u.n2, l) - binomial(u.n2 - l, l)
    raise ValueError(f"unknown kind {kind}")


def build_construction(spec: ConstructionSpec) -> Family:
    """Materialize the construction and verify it lands in its predicate class."""
    u, (k, l) = spec.universe, spec.profile
    kind = spec.kind
    if kind is ConstructionKind.HM_ONE_PART:
        if u.n2 != 0:
            raise ValueError("one-part construction needs n2 = 0")
        sets = _punctured_star(range(u.n1), k, spec.x, spec.k_set)
    elif kind is ConstructionKind.NONTRIVIAL_X1:
        core = _punctured_star(range(u.n1), k, spec.x, spec.k_set)
        sets = [a | mask_of(m) for a in core for m in combinations(u.elements("X2"), l)]
    elif kind is ConstructionKind.NONTRIVIAL_X2:
        core = _punctured_star(u.elements("X2"), l, spec.x, spec.k_set)
        sets = [mask_of(a) | m for m in core for a in combinations(range(u.n1), k)]
    elif kind is ConstructionKind.TWO_SIDED_X2:
        sets = _two_sided(u, k, l, spec, anchor_x2=True)
    elif kind is ConstructionKind.TWO_SIDED_X1:
        sets = _two_sided(u, k, l, spec, anchor_x2=False)
    else:
        raise ValueError(f"unknown kind {kind}")
    fam = Family(u, tuple(sorted(set(sets), key=sort_key)))
    _assert_kind(fam, kind)
    return fam


def _two_sided(u: Universe, k: int, l: int, spec: ConstructionSpec, anchor_x2: bool) -> list[int]:
    if anchor_x2:
        anchor_elems, anchor_size = u.elements("X2"), l
        free_elems, free_size = range(u.n1), k
    else:
        anchor_elems, anchor_size = range(u.n1), k
        free_elems, free_size = u.elements("X2"), l
    xbit = 1 << spec.x
    lmask, lpmask, kmask = mask_of(spec.l_set), mask_of(spec.l_prime), mask_of(spec.k_set)
    almost = [m for sub in combinations(anchor_elems, anchor_size)
              if (m := mask_of(sub)) & xbit and m & lmask]
    free_all = [mask_of(sub) for sub in combinations(free_elems, free_size)]
    sets = [a | m for m in almost for a in free_all]
    sets.append(kmask | lmask)
    sets.extend(a | lpmask for a in free_all if a & kmask)
    return sets


def _assert_kind(fam: Family, kind: ConstructionKind) -> None:
    if not is_intersecting(fam):
        raise ValueError(f"{kind.value} construction is not intersecting")
    if kind in (ConstructionKind.HM_ONE_PART, ConstructionKind.NONTRIVIAL_X1,
                ConstructionKind.NONTRIVIAL_X2):
        if is_trivially_intersecting(fam):
            raise ValueError(f"{kind.value} construction is trivially intersecting")
    else:
        if not is_two_sided_intersecting(fam):
            raise ValueError(f"{kind.value} construction is not two-sided")


def feasible_kinds(conjecture: int, u: Universe, p: tuple[int, int]) -> list[ConstructionKind]:
    """Construction kinds whose predicate class is non-empty at these parameters.

    The punctured star is non-trivial only when its anchored part size is at
    least 2.  The two-sided construction works as soon as either part size
    is at least 2: one missing pair comes from the anchor's almost-star, the
    other from disjoint sets on the free side (or, with a one-sized anchor,
    from the cross-intersecting tail, which then needs the free size >= 2).
    """
    k, l = Profile(*p)
    kinds = []
    if conjecture == 1:
        if k >= 2:
            kinds.append(ConstructionKind.NONTRIVIAL_X1)
        if l >= 2:
            kinds.append(ConstructionKind.NONTRIVIAL_X2)
    elif conjecture == 2:
        if k >= 2 or l >= 2:
            kinds.append(ConstructionKind.TWO_SIDED_X1)
            kinds.append(ConstructionKind.TWO_SIDED_X2)
    else:
        raise ValueError("conjecture must be 1 or 2")
    return kinds


def best_construction(conjecture: int, u: Universe, p: tuple[int, int]) -> Family | None:
    """Largest feasible construction for the cell, or None when none exists."""
    best: Family | None = None
    for kind in feasible_kinds(conjecture, u, p):
        fam = build_construction(canonical_spec(kind, u, p))
        if best is None or len(fam) > len(best):
            best = fam
    return best


# ------------------------------------------------------------ cross-intersecting

@dataclass(frozen=True)
class CrossResult:
    max_total: int
    family_a: Family
    family_b: Family
    proven_optimal: bool
    nodes: int

    def to_json(self) -> dict:
        return {
            "max_total": self.max_total,
            "family_a": self.family_a.to_lists(),
            "family_b": self.family_b.to_lists(),
            "proven_optimal": self.proven_optimal,
            "nodes": self.nodes,
        }


class _CrossBudget(Exception):
    pass


def _max_matching(adj: list[int], left: int, right: int) -> tuple[int, list[int]]:
    """Maximum matching between the bitsets ``left`` and ``right`` (Kuhn's method).

    Left vertex f is joined to the right vertices ``adj[f] & right``; both
    sides index the same list.  Each left vertex in turn starts a breadth-first
    search for an augmenting path.  Right vertices reached by a failed search
    stay closed until the matching next changes, since no augmenting path can
    pass through them before then.  Returns the matching size and ``mate``,
    where ``mate[g]`` is the left partner of right vertex g, or -1.
    """
    mate = [-1] * len(adj)
    mate_left = [-1] * len(adj)
    matched = 0  # right vertices with a partner
    closed = 0
    size = 0
    for root in iter_bits(left):
        parent: dict[int, int] = {}
        reached = closed
        frontier = [root]
        end = -1
        while frontier and end < 0:
            nxt = []
            for f in frontier:
                new = adj[f] & right & ~reached
                free = new & ~matched
                if free:
                    end = (free & -free).bit_length() - 1
                    parent[end] = f
                    break
                reached |= new
                for g in iter_bits(new):
                    parent[g] = f
                    nxt.append(mate[g])
            frontier = nxt
        if end < 0:
            closed = reached
            continue
        matched |= 1 << end
        g = end
        while g >= 0:  # flip the path back to the root
            f = parent[g]
            g_prev = mate_left[f]
            mate[g], mate_left[f] = f, g
            g = g_prev
        size += 1
        closed = 0
    return size, mate


def _koenig_independent_set(adj: list[int], left: int, right: int,
                            mate: list[int]) -> tuple[int, int]:
    """Largest independent set (left part, right part) from a maximum matching.

    Z is everything reachable from the unmatched left vertices along
    alternating paths; by König's theorem (left minus Z) plus (right in Z)
    is a minimum vertex cover, so its complement (left in Z) plus
    (right minus Z) is a maximum independent set.
    """
    matched_left = 0
    for g in iter_bits(right):
        if mate[g] >= 0:
            matched_left |= 1 << mate[g]
    z_left = frontier = left & ~matched_left
    z_right = 0
    while frontier:
        new = 0
        for f in iter_bits(frontier):
            new |= adj[f]
        new &= right & ~z_right
        z_right |= new
        frontier = 0
        for g in iter_bits(new):  # every reached right vertex is matched
            frontier |= 1 << mate[g]
        z_left |= frontier
    return z_left, right & ~z_right


def max_cross_intersecting(n: int, k: int, budget: SearchBudget | None = None) -> CrossResult:
    """Exact maximum of |F| + |G| over non-empty cross-intersecting k-set pairs.

    Take the bipartite disjointness graph on two copies of the k-sets (f on
    the left joined to g on the right when f and g are disjoint): (F, G) is
    cross-intersecting exactly when F on the left plus G on the right is an
    independent set.  Non-emptiness is forced by fixing a in F and b in G
    with a and b meeting; by symmetry a is the first k-set, so F ranges over
    the sets meeting b and G over the sets meeting a.  König's theorem gives
    the largest independent set of that subgraph as |left| + |right| minus a
    maximum matching, with a and b isolated and so always included.

    A node is one forced pair (a, b).  The incumbent starts as the singleton
    seed F = {a}, G = every set meeting a; the pairs run over b in ascending
    order and only a strictly larger total replaces it, so ties keep the
    earliest.  The node limit counts pairs, and the time limit counts from
    the call's start, set-up included.
    """
    if k < 1 or 2 * k > n:
        raise ValueError(f"needs 1 <= k and 2k <= n, got n={n}, k={k}")
    start = time.perf_counter()
    budget = budget or SearchBudget()
    deadline = None
    if budget.time_limit_s is not None:
        deadline = start + budget.time_limit_s
    u = Universe(n, 0)
    cands = [mask_of(c) for c in combinations(range(n), k)]
    meets = meet_rows(u, cands)
    full = (1 << len(cands)) - 1
    disj = [full & ~row for row in meets]

    right = meets[0]  # G must meet a = cands[0]
    best, fmask, gmask = 1 + right.bit_count(), 1, right
    nodes = 0
    proven = True
    try:
        if deadline is not None and time.perf_counter() > deadline:
            raise _CrossBudget  # set-up alone used up the time limit
        for b in iter_bits(right):
            nodes += 1
            if budget.node_limit is not None and nodes > budget.node_limit:
                raise _CrossBudget
            if deadline is not None and time.perf_counter() > deadline:
                raise _CrossBudget
            left = meets[b]  # F must meet b
            size, mate = _max_matching(disj, left, right)
            total = left.bit_count() + right.bit_count() - size
            if total > best:
                best = total
                fmask, gmask = _koenig_independent_set(disj, left, right, mate)
    except _CrossBudget:
        proven = False
    fam_a = Family(u, tuple(cands[i] for i in iter_bits(fmask)))
    fam_b = Family(u, tuple(cands[i] for i in iter_bits(gmask)))
    return CrossResult(best, fam_a, fam_b, proven, nodes)


CROSS_ORACLE_CAP = 8


def cross_oracle(n: int, k: int) -> int:
    """Max |F| + |G| by enumerating every pair of non-empty subsets directly."""
    cands = [mask_of(c) for c in combinations(range(n), k)]
    m = len(cands)
    if m > CROSS_ORACLE_CAP:
        raise ValueError(f"{m} candidate sets exceed the oracle cap of {CROSS_ORACLE_CAP}")
    best = 0
    for fsub in range(1, 1 << m):
        fsets = [cands[i] for i in iter_bits(fsub)]
        for gsub in range(1, 1 << m):
            if fsub.bit_count() + gsub.bit_count() <= best:
                continue
            ok = True
            for gi in iter_bits(gsub):
                gm = cands[gi]
                for fm in fsets:
                    if not fm & gm:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = fsub.bit_count() + gsub.bit_count()
    return best


# ------------------------------------------------------------------- hunting

class GridCell(NamedTuple):
    n1: int
    n2: int
    k: int
    l: int


@dataclass(frozen=True)
class ParameterGrid:
    cells: tuple[GridCell, ...]
    node_limit: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        for c in self.cells:
            if 2 * c.k > c.n1 or 2 * c.l > c.n2:
                raise ValueError(f"cell {c} violates 2k <= n1, 2l <= n2")

    @classmethod
    def default(cls, max_n: int = 5, max_k: int = 2) -> "ParameterGrid":
        cells = [
            GridCell(n1, n2, k, l)
            for n1 in range(2, max_n + 1)
            for n2 in range(2, max_n + 1)
            for k in range(1, min(max_k, n1 // 2) + 1)
            for l in range(1, min(max_k, n2 // 2) + 1)
        ]
        return cls(tuple(cells))

    @classmethod
    def from_json(cls, data: dict) -> "ParameterGrid":
        node_limit = data.get("node_limit")
        tl = data.get("time_limit_ms")
        time_limit_s = tl / 1000.0 if tl else None
        if "cells" in data:
            cells = tuple(GridCell(*c) for c in data["cells"])
        else:
            r = {key: data[key] for key in ("n1_range", "n2_range", "k_range", "l_range")}
            cells = tuple(
                GridCell(n1, n2, k, l)
                for n1 in range(r["n1_range"][0], r["n1_range"][1] + 1)
                for n2 in range(r["n2_range"][0], r["n2_range"][1] + 1)
                for k in range(r["k_range"][0], min(r["k_range"][1], n1 // 2) + 1)
                for l in range(r["l_range"][0], min(r["l_range"][1], n2 // 2) + 1)
            )
        return cls(cells, node_limit, time_limit_s)

    @classmethod
    def load(cls, path: str) -> "ParameterGrid":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


CONFIRMED = "confirmed"
COUNTEREXAMPLE = "counterexample"
BUDGET_EXHAUSTED = "budget_exhausted"
VACUOUS = "vacuous"
CELL_ERROR = "error"


@dataclass(frozen=True)
class CellResult:
    conjecture: int
    cell: GridCell
    found_max: int
    conjectured_bound: int
    construction_size: int
    status: str
    proven_optimal: bool
    nodes: int
    elapsed_s: float
    witness: list | None = None
    error: str | None = None

    def to_json(self) -> dict:
        out = {
            "conjecture": self.conjecture,
            "n1": self.cell.n1,
            "n2": self.cell.n2,
            "k": self.cell.k,
            "l": self.cell.l,
            "found_max": self.found_max,
            "conjectured_bound": self.conjectured_bound,
            "construction_size": self.construction_size,
            "status": self.status,
            "proven_optimal": self.proven_optimal,
            "nodes": self.nodes,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.error is not None:
            out["error"] = self.error
        return out


def evaluate_cell(conjecture: int, cell: GridCell, node_limit: int | None = None,
                  time_limit_s: float | None = None) -> CellResult:
    start = time.perf_counter()
    u = Universe(cell.n1, cell.n2)
    p = Profile(cell.k, cell.l)
    constraint = Constraint.NONTRIVIAL if conjecture == 1 else Constraint.TWO_SIDED
    bound_fn = nontrivial_bound if conjecture == 1 else two_sided_bound
    try:
        bound = bound_fn(u, p)
        seed = best_construction(conjecture, u, p)
        budget = None
        if node_limit or time_limit_s:
            budget = SearchBudget(node_limit, time_limit_s)
        result = max_intersecting(u, [p], constraint, budget, seed=seed, symmetry=True)
        csize = len(seed) if seed is not None else 0
        witness = None
        if not result.proven_optimal:
            status = BUDGET_EXHAUSTED
        elif result.max_size > bound:
            status = COUNTEREXAMPLE
            witness = result.witness.to_lists()
        elif conjecture == 2 and result.max_size == 0:
            status = VACUOUS
        else:
            status = CONFIRMED
        return CellResult(conjecture, cell, result.max_size, bound, csize, status,
                          result.proven_optimal, result.nodes,
                          time.perf_counter() - start, witness)
    except Exception as exc:  # recorded per cell, the sweep continues
        return CellResult(conjecture, cell, 0, 0, 0, CELL_ERROR, False, 0,
                          time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}")


@dataclass
class HuntReport:
    conjecture: int
    cells: list[CellResult]

    @property
    def statuses(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.cells:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    @property
    def counterexamples(self) -> list[CellResult]:
        return [c for c in self.cells if c.status == COUNTEREXAMPLE]


def _read_completed(jsonl_path: str, conjecture: int) -> dict[GridCell, dict]:
    done = {}
    if os.path.exists(jsonl_path):
        with open(jsonl_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("conjecture") == conjecture:
                    done[GridCell(rec["n1"], rec["n2"], rec["k"], rec["l"])] = rec
    return done


def _evaluate_args(args: tuple) -> CellResult:
    return evaluate_cell(*args)


def _evaluate_cells(conjecture: int, grid: ParameterGrid, cells: list[GridCell],
                    workers: int) -> Iterator[CellResult]:
    """Evaluate ``cells`` and yield each result in grid order as soon as it is known."""
    args = [(conjecture, c, grid.node_limit, grid.time_limit_s) for c in cells]
    if workers > 1 and args:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            yield from pool.imap(_evaluate_args, args)
    else:
        for a in args:
            yield evaluate_cell(*a)


def hunt(grid: ParameterGrid, conjecture: int, jsonl_path: str,
         csv_path: str | None = None, resume: bool = False,
         workers: int = 1) -> HuntReport:
    """Sweep the grid, appending one JSON line per finished cell.

    Each line is written and flushed as its cell finishes, in grid order
    (also with ``workers > 1``), so an interrupted sweep loses only the
    cell in flight.  With resume=True, cells already present in the
    JSON-lines file are skipped (their recorded results are kept in the
    report).
    """
    if conjecture not in (1, 2):
        raise ValueError("conjecture must be 1 or 2")
    done = _read_completed(jsonl_path, conjecture) if resume else {}
    if not resume and os.path.exists(jsonl_path):
        os.remove(jsonl_path)
    pending = [c for c in grid.cells if c not in done]

    results: dict[GridCell, CellResult] = {}
    with open(jsonl_path, "a", encoding="utf-8") as fh:
        for res in _evaluate_cells(conjecture, grid, pending, workers):
            fh.write(json.dumps(res.to_json(), sort_keys=True) + "\n")
            fh.flush()
            results[res.cell] = res

    report_cells = []
    for c in grid.cells:
        if c in results:
            report_cells.append(results[c])
        else:
            rec = done[c]
            report_cells.append(CellResult(
                conjecture, c, rec["found_max"], rec["conjectured_bound"],
                rec["construction_size"], rec["status"], rec["proven_optimal"],
                rec["nodes"], rec.get("elapsed_ms", 0.0) / 1000.0,
                rec.get("witness"), rec.get("error")))
    report = HuntReport(conjecture, report_cells)

    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["conjecture", "n1", "n2", "k", "l",
                             "found_max", "conjectured_bound", "construction_size", "status"])
            for c in report.cells:
                writer.writerow([c.conjecture, c.cell.n1, c.cell.n2, c.cell.k, c.cell.l,
                                 c.found_max, c.conjectured_bound, c.construction_size, c.status])
    return report
