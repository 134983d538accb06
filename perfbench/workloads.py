"""The three benchmark workloads and the traced layer probes.

Each workload calls ekrlab's public functions the way a user's script
does.  Instances are fixed; the seed only draws the random inputs (double
count families, sampled-verifier seeds) and the order in which instances
run, so node counts do not depend on it.

A workload has four parts:

- ``inputs(seed)``: build the instance list for one pass;
- ``probe(inputs, tmp)``: the solver set-up alone, by calling the same
  public functions with ``SearchBudget(node_limit=1)``;
- ``solve(inputs, tracer, tmp)``: one timed pass, returning raw results;
- ``check(inputs, results, ref, tmp)``: compare every result with the
  recorded reference and with independent sources, outside the timing.
"""

from __future__ import annotations

import json
import os
import random

from ekrlab import (
    Constraint,
    Family,
    ParameterGrid,
    Rectangle,
    SearchBudget,
    Universe,
    all_intervals,
    best_construction,
    build_graph,
    candidate_sets,
    canonical_permutations,
    cross_bound,
    double_count_check,
    enumerate_profile_sets,
    find_blocking_pairs,
    hunt,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    max_cross_intersecting,
    max_intersecting,
    proj_intersecting,
    profile_of,
    rectangle_pair_count,
    set_to_rectangle,
    star_bound,
)
from ekrlab.families import Profile
from ekrlab.verifiers import EXHAUSTIVE, SAMPLED, verify_check
from spans import self_time_by_name

ONE_NODE = SearchBudget(node_limit=1)

CONJECTURES = (1, 2)
CONSTRAINT = {1: Constraint.NONTRIVIAL, 2: Constraint.TWO_SIDED}

# (id, n1, n2, profiles); all are proven star-bound instances.
WIDE_INSTANCES = (
    ("8x8:22", 8, 8, ((2, 2),)),
    ("8x8:22+11", 8, 8, ((2, 2), (1, 1))),
    ("7x7:22+13", 7, 7, ((2, 2), (1, 3))),
    ("10x10:22", 10, 10, ((2, 2),)),
)

CROSS_NK = (7, 3)

# check id -> (params, sampled trials or None for exhaustive).  Sized so the
# twelve calls together take about as long as the cross solve.
VERIFIER_CASES = {
    "1": ({"n": 24, "k": 5}, None),
    "2": ({"n": 16, "k": 3, "b": 3}, None),
    "3": ({"n1": 10, "n2": 10, "k": 1, "l": 1, "b": 1}, 800),
    "4": ({"n1": 10, "n2": 10, "k": 2, "l": 2, "b": 2}, None),
    "5": ({"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2}, 200),
    "6": ({"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2}, 200),
    "7": ({"n1": 9, "n2": 9, "b": 2, "shapes": [[1, 1], [2, 1]]}, 400),
    "8": ({"n1": 9, "n2": 9, "b": 2, "shapes": [[1, 1], [2, 1]]}, 300),
    "9": ({"n1": 10, "n2": 10, "b": 1, "shapes": [[1, 1]]}, 2000),
    "c1": ({"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2}, 200),
    "c2": ({"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2}, 600),
    "c3": ({"n1": 10, "n2": 10, "b": 1, "shapes": [[1, 1]]}, 1000),
}

# Double-count families: fixed member counts per profile, so the incidence
# count is the same for every seed; only the members drawn change.
DC_UNIVERSE = (5, 5)
DC_MEMBERS = {(2, 2): 20, (1, 1): 5}
DC_FAMILIES = 24

# Blocking-pair scans: random maximal proj-intersecting families of 2x2
# rectangles on Z_9 x Z_9.
BLOCK_N, BLOCK_SHAPE, BLOCK_B, BLOCK_FAMILIES = 9, (2, 2), 2, 150


def cell_key(conjecture: int, cell) -> str:
    return f"{conjecture}:{cell.n1},{cell.n2},{cell.k},{cell.l}"


def _hunt_paths(tmp: str, conjecture: int) -> tuple[str, str]:
    base = os.path.join(tmp, f"hunt-conjecture{conjecture}")
    return base + ".jsonl", base + ".csv"


def _mismatch(got: dict, want: dict) -> bool:
    return any(got.get(k) != v for k, v in want.items())


# ------------------------------------------------------------------ hunt

class Hunt:
    """hunt() over the default grid for conjecture 1, then conjecture 2."""

    name = "hunt"

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        grids = {}
        for c in CONJECTURES:
            cells = list(ParameterGrid.default().cells)
            rng.shuffle(cells)
            grids[c] = ParameterGrid(tuple(cells))
        return grids

    def probe(self, grids: dict, tmp: str) -> None:
        for c, grid in grids.items():
            one_node = ParameterGrid(grid.cells, node_limit=1)
            hunt(one_node, c, *_hunt_paths(tmp, c), workers=1)

    def solve(self, grids: dict, tracer, tmp: str) -> dict:
        out = {}
        for c, grid in grids.items():
            with tracer.span("op.hunt", c):
                out[c] = hunt(grid, c, *_hunt_paths(tmp, c), workers=1)
        return out

    def check(self, grids: dict, reports: dict, ref: dict, tmp: str) -> tuple[int, list[str]]:
        attempted, failed = 0, []
        for c, report in reports.items():
            attempted += len(grids[c].cells)
            failed += check_hunt_report(c, grids[c], report, ref)
            jsonl, csv_path = _hunt_paths(tmp, c)
            with open(jsonl, encoding="utf-8") as fh:
                lines = [json.loads(line) for line in fh if line.strip()]
            with open(csv_path, encoding="utf-8") as fh:
                rows = [line for line in fh if line.strip()]
            if len(lines) != len(grids[c].cells) or len(rows) != len(grids[c].cells) + 1:
                failed.append(f"hunt {c}: report files hold {len(lines)} lines, {len(rows)} rows")
        return attempted, failed


def check_hunt_report(conjecture: int, grid, report, ref: dict) -> list[str]:
    """Every cell matches the reference; counterexample witnesses re-validate."""
    failed = []
    by_cell = {r.cell: r for r in report.cells}
    for cell in grid.cells:
        key = cell_key(conjecture, cell)
        r = by_cell.get(cell)
        if r is None:
            failed.append(f"hunt {key}: missing")
            continue
        got = {"found_max": r.found_max, "status": r.status, "proven_optimal": r.proven_optimal}
        if _mismatch(got, ref["hunt"][key]):
            failed.append(f"hunt {key}: {got} != {ref['hunt'][key]}")
        elif r.found_max < r.construction_size:
            failed.append(f"hunt {key}: maximum below the construction")
        elif r.status == "counterexample" and not _valid_hunt_witness(conjecture, cell, r):
            failed.append(f"hunt {key}: witness does not re-validate")
        elif r.status == "confirmed" and r.found_max > r.conjectured_bound:
            failed.append(f"hunt {key}: confirmed above the bound")
    return failed


def _valid_hunt_witness(conjecture: int, cell, r) -> bool:
    u = Universe(cell.n1, cell.n2)
    fam = Family.from_lists(u, r.witness)
    if len(fam) != r.found_max or r.found_max <= r.conjectured_bound:
        return False
    if any(profile_of(u, m) != (cell.k, cell.l) for m in fam.sets):
        return False
    if not is_intersecting(fam):
        return False
    if conjecture == 1:
        return not is_trivially_intersecting(fam)
    return is_two_sided_intersecting(fam)


# -------------------------------------------------------------- wide-any

class WideAny:
    """max_intersecting(..., Constraint.ANY), no budget, no symmetry."""

    name = "wide-any"

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        insts = [(iid, Universe(n1, n2), ps) for iid, n1, n2, ps in WIDE_INSTANCES]
        rng.shuffle(insts)
        return insts

    def probe(self, insts: list, tmp: str) -> None:
        for _, u, ps in insts:
            max_intersecting(u, ps, Constraint.ANY, ONE_NODE)

    def solve(self, insts: list, tracer, tmp: str) -> dict:
        out = {}
        for iid, u, ps in insts:
            with tracer.span("op.max_intersecting", iid):
                out[iid] = max_intersecting(u, ps, Constraint.ANY)
        return out

    def check(self, insts: list, results: dict, ref: dict, tmp: str) -> tuple[int, list[str]]:
        failed = []
        for iid, u, ps in insts:
            failed += check_wide_result(iid, u, ps, results[iid], ref)
        return len(insts), failed


def check_wide_result(iid: str, u: Universe, ps, r, ref: dict) -> list[str]:
    want = ref["wide-any"][iid]
    got = {"max_size": r.max_size, "proven_optimal": r.proven_optimal}
    if _mismatch(got, want):
        return [f"wide-any {iid}: {got} != {want}"]
    if r.max_size != star_bound(u, ps):
        return [f"wide-any {iid}: {r.max_size} != star bound {star_bound(u, ps)}"]
    fam = r.witness
    if (len(fam) != r.max_size or not is_intersecting(fam)
            or any(profile_of(u, m) not in ps for m in fam.sets)):
        return [f"wide-any {iid}: witness does not re-validate"]
    return []


# --------------------------------------------------------------- certify

def dc_families(rng: random.Random) -> list[Family]:
    u = Universe(*DC_UNIVERSE)
    classes = {p: enumerate_profile_sets(u, Profile(*p)) for p in DC_MEMBERS}
    fams = []
    for _ in range(DC_FAMILIES):
        sets = []
        for p, count in DC_MEMBERS.items():
            sets += rng.sample(classes[p], count)
        fams.append(Family(u, tuple(sets)))
    return fams


def verifier_calls(rng: random.Random) -> list[tuple]:
    calls = []
    for cid, (params, trials) in VERIFIER_CASES.items():
        if trials is None:
            calls.append((cid, params, EXHAUSTIVE, None, 1000))
        else:
            calls.append((cid, params, SAMPLED, rng.randrange(2**31), trials))
    return calls


def run_verifier(call):
    cid, params, mode, seed, trials = call
    return verify_check(cid, params, mode=mode, seed=seed, trials=trials)


class Certify:
    """Re-check proven statements: the (7,3) cross solve, all twelve verifiers, double counting."""

    name = "certify"

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = [("cross", "cross", CROSS_NK)]
        ops += [("verify", call[0], call) for call in verifier_calls(rng)]
        ops += [("doublecount", i, fam) for i, fam in enumerate(dc_families(rng))]
        rng.shuffle(ops)
        return ops

    def probe(self, ops: list, tmp: str) -> None:
        max_cross_intersecting(*CROSS_NK, ONE_NODE)

    def solve(self, ops: list, tracer, tmp: str) -> dict:
        out = {}
        for kind, oid, arg in ops:
            with tracer.span("op." + kind, oid):
                if kind == "cross":
                    out[(kind, oid)] = max_cross_intersecting(*arg)
                elif kind == "verify":
                    out[(kind, oid)] = run_verifier(arg)
                else:
                    out[(kind, oid)] = double_count_check(arg)
        return out

    def check(self, ops: list, results: dict, ref: dict, tmp: str) -> tuple[int, list[str]]:
        failed = []
        for kind, oid, arg in ops:
            r = results[(kind, oid)]
            if kind == "cross":
                failed += check_cross(r, ref)
            elif kind == "verify":
                failed += check_verifier(arg, r, ref)
            elif r.exact != ref["certify"]["doublecount"]["exact"] or r.size != len(arg):
                failed.append(f"doublecount {oid}: identity not exact")
        return len(ops), failed


def check_cross(r, ref: dict) -> list[str]:
    n, k = CROSS_NK
    want = ref["certify"]["cross"]
    got = {"max_total": r.max_total, "proven_optimal": r.proven_optimal}
    if _mismatch(got, want) or r.max_total != cross_bound(n, k):
        return [f"cross: {got} != {want} / cross_bound {cross_bound(n, k)}"]
    a, b = r.family_a.sets, r.family_b.sets
    if (not a or not b or len(a) + len(b) != r.max_total
            or any(m.bit_count() != k for m in a + b)
            or any(not x & y for x in a for y in b)):
        return ["cross: witness pair does not re-validate"]
    return []


def check_verifier(call, r, ref: dict) -> list[str]:
    cid, _, mode, _, trials = call
    want = ref["certify"]["verify:" + cid]
    if r.passed != want["passed"] or r.mode != mode:
        return [f"verify {cid}: passed={r.passed} mode={r.mode}"]
    expected = want["instances"] if mode == EXHAUSTIVE else trials
    if r.instances != expected:
        return [f"verify {cid}: {r.instances} instances, expected {expected}"]
    return []


WORKLOADS = {w.name: w for w in (Hunt(), WideAny(), Certify())}


# ---------------------------------------------------------- layer probes

def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _solver_instances(rng: random.Random) -> list[tuple]:
    """Every hunt cell and wide-any instance: (id, universe, profiles, constraint, conjecture, symmetry)."""
    insts = []
    for c in CONJECTURES:
        for cell in ParameterGrid.default().cells:
            u, p = Universe(cell.n1, cell.n2), (cell.k, cell.l)
            insts.append((cell_key(c, cell), u, [p], CONSTRAINT[c], c, True))
    for iid, n1, n2, ps in WIDE_INSTANCES:
        insts.append((iid, Universe(n1, n2), ps, Constraint.ANY, None, False))
    rng.shuffle(insts)
    return insts


def search_probes(tracer, rng: random.Random, ref: dict) -> tuple[dict, int, list[str]]:
    """Candidate enumeration, graph build, ordering, orbits, construction and
    branch-and-bound, timed apart on each solver instance of hunt and wide-any."""
    m = {"families.candidates": 0, "search.edges": 0, "search.nodes": 0}
    orbits = bnb = 0.0
    failed = []
    insts = _solver_instances(rng)
    for iid, u, ps, constraint, conj, sym in insts:
        with tracer.span("probe.instance", iid):
            with tracer.span("families.candidate_sets", iid):
                cands = candidate_sets(u, ps)
            with tracer.span("search.build_graph", iid):
                g = build_graph(u, ps)
            seed = None
            if conj is not None:
                with tracer.span("conjectures.construction", iid):
                    seed = best_construction(conj, u, ps[0])
            with tracer.span("search.order", iid) as off:
                max_intersecting(u, ps, constraint, ONE_NODE, seed=seed, symmetry=False, graph=g)
            setup = _dur(off)
            if sym:
                with tracer.span("search.orbits_and_order", iid) as on:
                    max_intersecting(u, ps, constraint, ONE_NODE, seed=seed, symmetry=True, graph=g)
                orbits += _dur(on) - _dur(off)
                setup = _dur(on)
            with tracer.span("search.solve", iid) as full:
                r = max_intersecting(u, ps, constraint, seed=seed, symmetry=sym, graph=g)
            bnb += _dur(full) - setup
        m["families.candidates"] += len(cands)
        m["search.edges"] += g.edge_count()
        m["search.nodes"] += r.nodes
        want = ref["hunt"][iid]["found_max"] if conj is not None else ref["wide-any"][iid]["max_size"]
        if r.max_size != want or not r.proven_optimal:
            failed.append(f"probe {iid}: {r.max_size} != {want}")
    self_s = self_time_by_name(tracer.spans)
    m["families.candidate_sets_s"] = self_s["families.candidate_sets"]
    m["search.build_graph_s"] = self_s["search.build_graph"]
    m["search.order_s"] = self_s["search.order"]
    m["search.orbits_s"] = orbits
    m["search.bnb_s"] = bnb
    m["search.nodes_per_s"] = m["search.nodes"] / bnb
    m["conjectures.construction_s"] = self_s["conjectures.construction"]
    return m, len(insts), failed


def resume_probe(tracer, ref: dict, tmp: str) -> tuple[dict, int, list[str]]:
    """hunt(..., resume=True) over a finished report: reads JSONL, writes CSV, solves nothing."""
    grid = ParameterGrid.default()
    for c in CONJECTURES:
        hunt(grid, c, *_hunt_paths(tmp, c), workers=1)
    failed = []
    with tracer.span("conjectures.resume") as rec:
        reports = {c: hunt(grid, c, *_hunt_paths(tmp, c), resume=True, workers=1)
                   for c in CONJECTURES}
    for c, report in reports.items():
        failed += check_hunt_report(c, grid, report, ref)
    return {"conjectures.resume_s": _dur(rec)}, 2 * len(grid.cells), failed


def certify_probes(tracer, seed: int, ref: dict) -> tuple[dict, int, list[str]]:
    """Cross solver, cyclic kernels, double counting and verifiers on certify's inputs."""
    ops = WORKLOADS["certify"].inputs(seed)
    calls = [arg for kind, _, arg in ops if kind == "verify"]
    fams = [arg for kind, _, arg in ops if kind == "doublecount"]
    m = {}
    failed = []
    attempted = 0
    with tracer.span("conjectures.cross_setup") as rec:
        max_cross_intersecting(*CROSS_NK, ONE_NODE)
    m["conjectures.cross_setup_s"] = _dur(rec)
    with tracer.span("conjectures.cross") as rec:
        cross = max_cross_intersecting(*CROSS_NK)
    failed += check_cross(cross, ref)
    attempted += 1
    m["conjectures.cross_s"] = _dur(rec)
    m["conjectures.cross_nodes"] = cross.nodes
    m["conjectures.cross_nodes_per_s"] = cross.nodes / _dur(rec)

    for i, rects in enumerate(blocking_families(random.Random(seed))):
        with tracer.span("cyclic.blocking_scan", i):
            find_blocking_pairs(rects, BLOCK_B)

    u = Universe(*DC_UNIVERSE)
    perms1 = list(canonical_permutations(u.n1))
    perms2 = list(canonical_permutations(u.n2))
    incidences = 0
    for i, fam in enumerate(fams):
        with tracer.span("cyclic.rectangle_test", i):
            count = sum(1 for c1 in perms1 for c2 in perms2 for mask in fam.sets
                        if set_to_rectangle(u, mask, c1, c2) is not None)
        incidences += count
        if count != sum(rectangle_pair_count(u, mask) for mask in fam.sets):
            failed.append(f"rectangle test {i}: {count} incidences disagree with the closed form")
        with tracer.span("doublecount.check", i):
            r = double_count_check(fam)
        attempted += 1
        if r.exact != ref["certify"]["doublecount"]["exact"] or r.size != len(fam):
            failed.append(f"doublecount {i}: identity not exact")
    m["doublecount.incidences"] = incidences

    instances = sampled_instances = sampled_draws = 0
    for call in calls:
        with tracer.span("verifiers.check." + call[0]):
            r = run_verifier(call)
        attempted += 1
        failed += check_verifier(call, r, ref)
        instances += r.instances
        if call[2] == SAMPLED:
            sampled_instances += r.instances
            sampled_draws += r.instances + r.hypothesis_rejections
    m["verifiers.instances"] = instances
    m["verifiers.acceptance_ratio"] = sampled_instances / sampled_draws

    self_s = self_time_by_name(tracer.spans)
    for name in ("cyclic.blocking_scan", "cyclic.rectangle_test", "doublecount.check"):
        m[name + "_s"] = self_s[name]
    for cid in VERIFIER_CASES:
        m["verifiers.check_s." + cid] = self_s["verifiers.check." + cid]
    return m, attempted, failed


def blocking_families(rng: random.Random) -> list[list[Rectangle]]:
    """Random maximal proj-intersecting families of one rectangle shape."""
    k, l = BLOCK_SHAPE
    space = [Rectangle(i, j) for i in all_intervals(BLOCK_N, k) for j in all_intervals(BLOCK_N, l)]
    fams = []
    for _ in range(BLOCK_FAMILIES):
        order = space[:]
        rng.shuffle(order)
        chosen: list[Rectangle] = []
        for r in order:
            if all(proj_intersecting(r, s) for s in chosen):
                chosen.append(r)
        fams.append(chosen)
    return fams


def layer_probes(tracer, seed: int, ref: dict, tmp: str) -> tuple[dict, int, list[str]]:
    """Every per-layer metric, each on its layer's home instances."""
    metrics, attempted, failed = {}, 0, []
    for part in (search_probes(tracer, random.Random(seed), ref), resume_probe(tracer, ref, tmp),
                 certify_probes(tracer, seed, ref)):
        metrics.update(part[0])
        attempted += part[1]
        failed += part[2]
    return metrics, attempted, failed
