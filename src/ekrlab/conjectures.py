"""Extremal constructions and conjecture hunting.

The constructions realize the product-type ceilings of ``bounds``, except
where a non-trivial ceiling's larger term counts a star (k = 1 or l = 1; see
``nontrivial_bound``).  The conjecture table gives each conjecture its
constraint and its ceiling; one builder, ``_construction``, makes the
canonical family for one anchor part, and ``best_construction`` tries anchor
X1, then X2.  Every member is an
anchor-part set crossed with a free-part set: a punctured star in the anchor
part (all sets through x meeting a fixed set K, plus K itself) for the
non-trivial conjecture, and the anchored two-step product construction for
the two-sided one.

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
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple

from .bounds import _require_half, nontrivial_bound, two_sided_bound
from .families import Family, Profile, Universe, iter_bits, mask_of, sort_key
from .search import (VERTEX_CAP, Constraint, SearchBudget, _BudgetExhausted, _capped_candidates,
                     _satisfies, max_intersecting, meet_rows)


# conjecture -> (constraint, ceiling)
_CONJECTURES = {
    1: (Constraint.NONTRIVIAL, nontrivial_bound),
    2: (Constraint.TWO_SIDED, two_sided_bound),
}


def _conjecture(conjecture: int) -> tuple:
    """The conjecture's row of the conjecture table."""
    if conjecture not in _CONJECTURES:
        raise ValueError(f"conjecture must be {' or '.join(map(str, _CONJECTURES))}")
    return _CONJECTURES[conjecture]


def _construction(constraint: Constraint, u: Universe, anchor: range, a: int,
                  free: range, f: int) -> Family:
    """The canonical construction with a-sets of the anchor part and f-sets of the free part.

    x is the anchor part's first element.  The punctured star is every a-set
    through x meeting K, the a elements after x, times every free set, plus K
    times every free set.  The two-step family is every a-set through x
    meeting L times every free set, plus K + L, plus L' times every free set
    meeting K, where L' is the a elements from x, L the next a, and K the
    first f free elements.  The family is checked to be intersecting and to
    satisfy ``constraint``.
    """
    x, xbit = anchor.start, 1 << anchor.start
    free_sets = [mask_of(sub) for sub in combinations(free, f)]
    if constraint is Constraint.NONTRIVIAL:
        meet = kmask = mask_of(range(x + 1, x + a + 1))
        extra = [kmask | b for b in free_sets]
    else:
        kmask = mask_of(range(free.start, free.start + f))
        meet, lpmask = mask_of(range(x + a, x + 2 * a)), mask_of(range(x, x + a))  # L, L'
        extra = [kmask | meet] + [b | lpmask for b in free_sets if b & kmask]
    sets = [m | b for sub in combinations(anchor, a)
            if (m := mask_of(sub)) & xbit and m & meet for b in free_sets]
    fam = Family(u, tuple(sorted(set(sets + extra), key=sort_key)))
    # intersecting: every member's meet row, with its own bit, covers the family
    everyone = (1 << len(fam.sets)) - 1
    what = f"the {constraint.value} construction anchored at {x}"
    if any(row | 1 << i != everyone for i, row in enumerate(meet_rows(u, fam.sets))):
        raise ValueError(f"{what} is not intersecting")
    if not _satisfies(fam, constraint):
        raise ValueError(f"{what} is trivially intersecting" if constraint is Constraint.NONTRIVIAL
                         else f"{what} is not two-sided")
    return fam


def best_construction(conjecture: int, u: Universe, p: tuple[int, int]) -> Family | None:
    """Largest feasible construction for the cell, or None when none exists.

    Anchor X1 is tried first, then X2, and only a strictly larger family
    replaces the first.  The punctured star is non-trivial only when its
    anchor size a is at least 2.  The two-step family is two-sided as soon as
    a or the free size f is at least 2: one missing pair comes from the
    anchor's almost-star, the other from disjoint sets on the free side (or,
    with a one-sized anchor, from the cross-intersecting tail, which then
    needs f >= 2).
    """
    constraint, _ = _conjecture(conjecture)
    k, l = p
    x1, x2 = range(u.n1), range(u.n1, u.size)
    best: Family | None = None
    for anchor, a, free, f in ((x1, k, x2, l), (x2, l, x1, k)):
        if a >= 2 or (constraint is Constraint.TWO_SIDED and f >= 2):
            fam = _construction(constraint, u, anchor, a, free, f)
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

    A node is one forced pair per orbit: the stabiliser S_k x S_{n-k} of a
    carries (a, b) onto (a, b') when |a & b| = |a & b'|, so only the first b
    of each intersection size is solved, in ascending order.  The incumbent
    starts as the singleton seed F = {a}, G = every set meeting a, and only a
    strictly larger total replaces it, so ties keep the earliest.  The node
    limit counts pairs, under ``SearchBudget.exceeded``; more than
    ``VERTEX_CAP`` k-sets are refused from their count.
    """
    _require_half(n, k)
    start = time.perf_counter()
    budget = budget or SearchBudget()
    u = Universe(n, 0)
    _, cands = _capped_candidates(u, [(k, 0)], VERTEX_CAP, "vertex")
    meets = meet_rows(u, cands)
    full = (1 << len(cands)) - 1
    disj = [full & ~row for row in meets]

    right = meets[0]  # G must meet a = cands[0]
    best, fmask, gmask = 1 + right.bit_count(), 1, right
    nodes = 0
    proven = True
    try:
        if budget.exceeded(0, start):
            raise _BudgetExhausted  # set-up alone used up the time limit
        for j in range(k, 0, -1):  # the first b with |a & b| = j: 0, ..., j-1 and k, ..., 2k-j-1
            b = cands.index(mask_of(range(j)) | mask_of(range(k, 2 * k - j)))
            nodes += 1
            if budget.exceeded(nodes, start):
                raise _BudgetExhausted
            left = meets[b]  # F must meet b
            size, mate = _max_matching(disj, left, right)
            total = left.bit_count() + right.bit_count() - size
            if total > best:
                best = total
                fmask, gmask = _koenig_independent_set(disj, left, right, mate)
    except _BudgetExhausted:
        proven = False
    fam_a = Family(u, tuple(cands[i] for i in iter_bits(fmask)))
    fam_b = Family(u, tuple(cands[i] for i in iter_bits(gmask)))
    return CrossResult(best, fam_a, fam_b, proven, nodes)


CROSS_ORACLE_CAP = 8


def cross_oracle(n: int, k: int) -> int:
    """Max |F| + |G| by enumerating every pair of non-empty subsets directly."""
    _, cands = _capped_candidates(Universe(n, 0), [(k, 0)], CROSS_ORACLE_CAP, "oracle")
    m = len(cands)
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


def _ints(value, what: str, count: int) -> list[int]:
    """``value`` when it is a list of ``count`` integers, else a ValueError naming ``what``."""
    if not (isinstance(value, list) and len(value) == count and all(type(x) is int for x in value)):
        raise ValueError(f"{what} must be a list of {count} integers, got {value!r}")
    return value


@dataclass(frozen=True)
class ParameterGrid:
    cells: tuple[GridCell, ...]
    node_limit: int | None = None
    time_limit_s: float | None = None

    def __post_init__(self) -> None:
        seen = set()
        for c in self.cells:
            try:  # the rule both ceilings apply, so no cell becomes an error record
                _require_half(c.n1, c.k)
                _require_half(c.n2, c.l)
            except ValueError:
                raise ValueError(f"cell {list(c)} needs 1 <= k, 2k <= n1, 1 <= l, 2l <= n2") from None
            if c in seen:  # it would be solved and reported twice
                raise ValueError(f"cell {list(c)} is listed twice")
            seen.add(c)
        SearchBudget(self.node_limit, self.time_limit_s)  # rejects zero and negative limits

    @classmethod
    def default(cls) -> "ParameterGrid":
        return cls.from_json({"n1_range": [2, 5], "n2_range": [2, 5],
                              "k_range": [1, 2], "l_range": [1, 2]})

    @classmethod
    def from_json(cls, data) -> "ParameterGrid":
        """The grid a JSON object gives; a malformed one raises ValueError naming the key or cell."""
        if not isinstance(data, dict):
            raise ValueError(f"a grid must be a JSON object, got {data!r}")
        keys = ("cells", "node_limit", "time_limit_ms", "n1_range", "n2_range", "k_range", "l_range")
        if unknown := [x for x in data if x not in keys]:
            raise ValueError(f"unknown grid key {unknown[0]!r}; known keys: {', '.join(keys)}")
        node_limit, tl = data.get("node_limit"), data.get("time_limit_ms")
        if node_limit is not None and type(node_limit) is not int:
            raise ValueError(f"node_limit must be an integer, got {node_limit!r}")
        if tl is not None and (type(tl) not in (int, float) or tl <= 0):
            raise ValueError(f"time_limit_ms must be positive milliseconds, got {tl!r}")
        ranges = keys[3:]
        if "cells" in data:
            if any(x in data for x in ranges):
                raise ValueError("a grid gives cells or ranges, not both")
            if not isinstance(data["cells"], list):
                raise ValueError(f"cells must be a list, got {data['cells']!r}")
            cells = tuple(GridCell(*_ints(c, "cell", 4)) for c in data["cells"])
        else:
            n1s, n2s, ks, ls = (range(a, b + 1) for a, b in (_ints(data.get(x), x, 2) for x in ranges))
            cells = tuple(GridCell(n1, n2, k, l) for n1 in n1s for n2 in n2s
                          for k in ks if 2 * k <= n1 for l in ls if 2 * l <= n2)
        return cls(cells, node_limit, None if tl is None else tl / 1000.0)

    @classmethod
    def load(cls, path: str) -> "ParameterGrid":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


CONFIRMED = "confirmed"
COUNTEREXAMPLE = "counterexample"
BUDGET_EXHAUSTED = "budget_exhausted"
VACUOUS = "vacuous"
CELL_ERROR = "error"
# the hunt CSV's columns, each read from the record's to_json()
_CSV_COLUMNS = ("conjecture", "n1", "n2", "k", "l", "found_max", "conjectured_bound",
                "construction_size", "status")


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

    @classmethod
    def from_json(cls, rec) -> "CellResult":
        """Invert ``to_json`` to the microsecond; a malformed ``rec`` raises ValueError."""
        if not isinstance(rec, dict):
            raise ValueError(f"a hunt record must be a JSON object, got {rec!r}")
        try:
            return cls(rec["conjecture"], GridCell(rec["n1"], rec["n2"], rec["k"], rec["l"]),
                       rec["found_max"], rec["conjectured_bound"], rec["construction_size"],
                       rec["status"], rec["proven_optimal"], rec["nodes"],
                       rec.get("elapsed_ms", 0.0) / 1000.0, rec.get("witness"), rec.get("error"))
        except KeyError as exc:
            raise ValueError(f"a hunt record lacks the key {exc}") from None


def evaluate_cell(conjecture: int, cell: GridCell, node_limit: int | None = None,
                  time_limit_s: float | None = None) -> CellResult:
    start = time.perf_counter()
    u = Universe(cell.n1, cell.n2)
    p = Profile(cell.k, cell.l)
    # an unknown conjecture or a bad budget is the caller's error, not the cell's: both raise
    constraint, ceiling = _conjecture(conjecture)
    budget = SearchBudget(node_limit, time_limit_s)
    try:
        bound = ceiling(u, p)
        seed = best_construction(conjecture, u, p)
        result = max_intersecting(u, [p], constraint, budget, seed=seed, symmetry=True)
        csize = len(seed) if seed is not None else 0
        witness = None
        if not result.proven_optimal:
            status = BUDGET_EXHAUSTED
        elif result.max_size > bound:
            status = COUNTEREXAMPLE
            witness = result.witness.to_lists()
        elif constraint is Constraint.TWO_SIDED and result.max_size == 0:
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
        return dict(Counter(c.status for c in self.cells))

    @property
    def counterexamples(self) -> list[CellResult]:
        return [c for c in self.cells if c.status == COUNTEREXAMPLE]


def _read_completed(jsonl_path: str, conjecture: int) -> dict[GridCell, CellResult]:
    """The finished cells of a JSON-lines file, by their last record.

    A sweep killed mid-write leaves an unterminated last line.  When it does
    not parse it is the cell in flight: it is cut from the file, so the next
    record starts on a fresh line, and the cell runs again.  When it parses
    it counts, and gets its newline.  Any other malformed line, or a record
    of the wrong shape, raises before the file is touched.
    """
    results = []
    if os.path.exists(jsonl_path):
        with open(jsonl_path, "rb+") as fh:
            *lines, tail = fh.read().split(b"\n")  # tail is empty after a final newline
            results = [CellResult.from_json(json.loads(x)) for x in lines if x.strip()]
            if tail.strip():
                try:
                    rec = json.loads(tail)
                except ValueError:
                    fh.truncate(fh.tell() - len(tail))
                else:
                    results.append(CellResult.from_json(rec))
                    fh.write(b"\n")
    done = {res.cell: res for res in results if res.conjecture == conjecture}
    # a cell's last record counts; an error there leaves the cell pending
    return {c: res for c, res in done.items() if res.status != CELL_ERROR}


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
        yield from map(_evaluate_args, args)


def hunt(grid: ParameterGrid, conjecture: int, jsonl_path: str,
         csv_path: str | None = None, resume: bool = False,
         workers: int = 1) -> HuntReport:
    """Sweep the grid, appending one JSON line per finished cell.

    Each line is written and flushed as its cell finishes, in grid order
    (also with ``workers > 1``), so an interrupted sweep loses only the
    cell in flight.  With resume=True, cells already present in the
    JSON-lines file are skipped (their recorded results are kept in the
    report), except cells whose last record is an error: those run again.
    """
    _conjecture(conjecture)  # rejects an unknown conjecture before the report is touched
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    done = _read_completed(jsonl_path, conjecture) if resume else {}
    if not resume and os.path.exists(jsonl_path):
        os.remove(jsonl_path)
    pending = [c for c in grid.cells if c not in done]

    with open(jsonl_path, "a", encoding="utf-8") as fh:
        for res in _evaluate_cells(conjecture, grid, pending, workers):
            fh.write(json.dumps(res.to_json(), sort_keys=True) + "\n")
            fh.flush()
            done[res.cell] = res
    report = HuntReport(conjecture, [done[c] for c in grid.cells])

    if csv_path:
        _write_csv(csv_path, report)
    return report


def _write_csv(csv_path: str, report: HuntReport) -> None:
    """Write the summary table next to its target, then rename it into place.

    A failed write leaves the previous table untouched and no temp file behind.
    """
    tmp = f"{csv_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for c in report.cells:
                rec = c.to_json()
                writer.writerow([rec[x] for x in _CSV_COLUMNS])
        os.replace(tmp, csv_path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
