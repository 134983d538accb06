"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines stream; timings are asserted at the stated limits.
"""

import functools
import random
import time
from math import comb

from ekrlab.bounds import cross_bound, ekr_bound, frankl_bound, hm_bound, star_bound, star_bound_proven
from ekrlab.conjectures import (
    BUDGET_EXHAUSTED,
    CONFIRMED,
    COUNTEREXAMPLE,
    VACUOUS,
    ParameterGrid,
    best_construction,
    cross_oracle,
    hunt,
    max_cross_intersecting,
)
from ekrlab.doublecount import double_count_check, enumerate_rectangle_pair_count, rectangle_pair_count
from ekrlab.families import (
    X1,
    X2,
    Family,
    Universe,
    candidate_sets,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    mask_of,
)
from ekrlab.search import Constraint, build_graph, exhaustive_oracle, max_intersecting
from ekrlab.verifiers import SAMPLED, verify_check


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:02d}: {label}")
                raise
            print(f"[PASS] criterion {num:02d}: {label} ({time.perf_counter() - start:.1f}s)")
        return wrapper
    return deco


@criterion(1, "one-part intersecting maximum matches C(n-1,k-1) for 2k <= n <= 8")
def test_a01_one_part_maximum():
    start = time.perf_counter()
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            r = max_intersecting(Universe(n, 0), [(k, 0)])
            assert r.proven_optimal
            assert r.max_size == ekr_bound(n, k), (n, k, r.max_size)
    assert time.perf_counter() - start < 10.0


@criterion(2, "two-part single-profile maximum matches the star bound for n1, n2 <= 5")
def test_a02_two_part_single_profile():
    start = time.perf_counter()
    checked = {}
    for n1 in range(2, 6):
        for n2 in range(2, 6):
            u = Universe(n1, n2)
            for k in range(1, n1 // 2 + 1):
                for l in range(1, n2 // 2 + 1):
                    r = max_intersecting(u, [(k, l)])
                    assert r.proven_optimal
                    assert r.max_size == frankl_bound(u, (k, l)), (n1, n2, k, l)
                    checked[(n1, n2, k, l)] = r.max_size
    assert checked[(4, 4, 2, 2)] == 18
    assert checked[(5, 4, 2, 2)] == 30
    assert time.perf_counter() - start < 60.0


@criterion(3, "star bound attained at the proven-regime corner; mixed-profile exploration agrees with the oracle")
def test_a03_star_regime_corner():
    start = time.perf_counter()
    for n1, n2 in [(9, 9), (9, 12), (12, 9)]:
        u = Universe(n1, n2)
        r = max_intersecting(u, [(1, 1)], Constraint.ANY)
        assert star_bound_proven(u, [(1, 1)]) and r.proven_optimal
        assert r.max_size == star_bound(u, [(1, 1)]) == max(n1, n2)
    assert time.perf_counter() - start < 5.0
    # larger prescribed sizes sit far outside the proven regime at desk scale:
    # run the below-threshold exploration report and cross-check the solver
    # against the subset oracle on a width that fits the oracle cap
    u = Universe(6, 6)
    r = max_intersecting(u, [(1, 1), (2, 1)], Constraint.ANY)
    assert r.proven_optimal and not star_bound_proven(u, [(1, 1), (2, 1)])
    assert r.max_size == star_bound(u, [(1, 1), (2, 1)]) == 36
    small = Universe(3, 3)
    assert max_intersecting(small, [(1, 1), (2, 1)]).max_size == \
        exhaustive_oracle(small, [(1, 1), (2, 1)])


@criterion(4, "distance-graph clique structure holds exhaustively for 2 <= 2k < n <= 12")
def test_a04_distance_graph_cliques():
    start = time.perf_counter()
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            report = verify_check("1", {"n": n, "k": k})
            assert report.passed, (n, k, report.counterexamples)
            assert report.instances > 0
    assert time.perf_counter() - start < 30.0


@criterion(5, "interval dispersion holds exhaustively for 2(k+b) <= n <= 10")
def test_a05_interval_dispersion():
    start = time.perf_counter()
    cells = 0
    for n in range(4, 11):
        for k in range(1, n):
            for b in range(1, n):
                if 2 * (k + b) <= n:
                    report = verify_check("2", {"n": n, "k": k, "b": b})
                    assert report.passed, (n, k, b, report.counterexamples)
                    cells += 1
    assert cells > 0
    assert time.perf_counter() - start < 60.0


@criterion(6, "every proj-intersecting family of >= 9 unit squares in Z_5 x Z_5 has a blocking pair")
def test_a06_blocking_pair_existence():
    report = verify_check("3", {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1})
    assert report.passed
    # the hypothesis is unsatisfiable at this corner (pairwise proj-intersecting
    # unit squares form rook lines of length <= 5 < 9), so the exhaustive scan
    # confirms zero counterexamples over zero instances; re-verify the emptiness
    # independently via the clique solver on the compatibility structure
    assert report.instances == 0
    r = max_intersecting(Universe(5, 5), [(1, 1)])
    assert r.max_size == 5 < 9
    # and a non-vacuous run of the same check at a wider cycle still passes
    wide = verify_check("3", {"n1": 10, "n2": 10, "k": 1, "l": 1, "b": 1})
    assert wide.passed and wide.instances == 220


@criterion(7, "no sampled proj-intersecting family carries both blocking-pair kinds (1000 seeded draws)")
def test_a07_no_mixed_blocking_pairs():
    report = verify_check("7", {"n1": 5, "n2": 5, "b": 1, "shapes": [[1, 1]]},
                          mode=SAMPLED, seed=1, trials=1000)
    assert report.instances == 1000
    assert report.passed, report.counterexamples[:3]


@criterion(8, "weighted incidence sum equals |F| exactly on seeded random families")
def test_a08_double_count_identity():
    start = time.perf_counter()
    cases = {
        (3, 3): [(1, 1), (2, 1), (1, 2)],
        (4, 4): [(1, 1), (2, 1), (2, 2)],
        (4, 5): [(1, 1), (2, 2), (1, 2)],
    }
    for (n1, n2), profiles in cases.items():
        u = Universe(n1, n2)
        pool = candidate_sets(u, profiles)
        rng = random.Random(1000 * n1 + n2)
        for _ in range(20):
            sets = rng.sample(pool, rng.randint(1, min(8, len(pool))))
            res = double_count_check(Family(u, tuple(sorted(sets))))
            assert res.by_member == res.size
            assert res.by_pair == res.size
    assert time.perf_counter() - start < 60.0


@criterion(9, "closed-form permutation-pair count equals enumeration for all profiles, n1, n2 <= 5")
def test_a09_pair_count_closed_form():
    for n1 in range(1, 6):
        for n2 in range(0, 6):
            u = Universe(n1, n2)
            for k in range(1, n1 + 1):
                for l in range(1 if n2 else 0, n2 + 1):
                    mask = mask_of(list(range(k)) + list(range(n1, n1 + l)))
                    assert rectangle_pair_count(u, mask) == \
                        enumerate_rectangle_pair_count(u, mask), (n1, n2, k, l)


@criterion(10, "largest non-trivially intersecting one-part family matches the punctured-star bound")
def test_a10_hilton_milner_reproduction():
    for n in range(4, 9):
        for k in range(2, n // 2 + 1):
            r = max_intersecting(Universe(n, 0), [(k, 0)], Constraint.NONTRIVIAL)
            assert r.proven_optimal
            assert r.max_size == hm_bound(n, k), (n, k, r.max_size)
    assert max_intersecting(Universe(5, 0), [(2, 0)], Constraint.NONTRIVIAL).max_size == 3
    # k = 1 is vacuous: singletons pairwise intersect only when equal, so no
    # non-trivially intersecting family exists; the (unattained) bound is 1
    for n in range(2, 9):
        r = max_intersecting(Universe(n, 0), [(1, 0)], Constraint.NONTRIVIAL)
        assert r.max_size == 0 < hm_bound(n, 1)
        if n <= 5:
            assert exhaustive_oracle(Universe(n, 0), [(1, 0)], Constraint.NONTRIVIAL) == 0


@criterion(11, "cross-intersecting maximum matches the closed form for 2k <= n <= 7, k <= 3")
def test_a11_cross_intersecting():
    assert max_cross_intersecting(4, 2).max_total == cross_oracle(4, 2) == 6
    for n in range(2, 8):
        for k in range(1, min(3, n // 2) + 1):
            r = max_cross_intersecting(n, k)
            assert r.proven_optimal
            assert r.max_total == cross_bound(n, k), (n, k, r.max_total)


def _two_part_hm(u, k, l, side):
    """H(x, T): every (k, l)-set through x that meets T, plus T itself.

    x is the first element of ``side``; T takes the next k elements of X1 and
    the next l elements of X2 while avoiding x.  Built from the candidate sets
    alone, so it stays independent of the constructions in ``conjectures``.
    """
    if side == X1:
        x, t = 0, list(range(1, k + 1)) + list(range(u.n1, u.n1 + l))
    else:
        x, t = u.n1, list(range(k)) + list(range(u.n1 + 1, u.n1 + l + 1))
    tmask, xbit = mask_of(t), 1 << x
    return Family(u, tuple(m for m in candidate_sets(u, [(k, l)])
                           if m == tmask or (m & xbit and m & tmask)))


def _two_part_hm_size(u, k, l, side):
    if side == X1:
        return comb(u.n1 - 1, k - 1) * comb(u.n2, l) - comb(u.n1 - k - 1, k - 1) * comb(u.n2 - l, l) + 1
    return comb(u.n1, k) * comb(u.n2 - 1, l - 1) - comb(u.n1 - k, k) * comb(u.n2 - l - 1, l - 1) + 1


def _largest_valid_hm(conjecture, u, k, l):
    """|H| for the larger orientation in the cell's predicate class, 0 if neither qualifies."""
    best = 0
    for side in (X1, X2):
        fam = _two_part_hm(u, k, l, side)
        assert len(fam) == _two_part_hm_size(u, k, l, side), (u, k, l, side)
        valid = is_intersecting(fam) and (
            not is_trivially_intersecting(fam) if conjecture == 1 else is_two_sided_intersecting(fam))
        if valid:
            best = max(best, len(fam))
    return best


@criterion(12, "conjecture harness: every default-grid cell is counterexample exactly when the "
               "two-part Hilton-Milner family beats the ceiling; sandwich, witnesses, resume hold")
def test_a12_conjecture_harness(tmp_path):
    grid = ParameterGrid.default()
    jsonl = {conjecture: str(tmp_path / f"hunt{conjecture}.jsonl") for conjecture in (1, 2)}
    reports = {conjecture: hunt(grid, conjecture, path) for conjecture, path in jsonl.items()}
    disagreements = []  # the status test below also rejects `error` cells
    for conjecture, report in reports.items():
        assert len(report.cells) == len(grid.cells)
        for c in report.cells:
            u = Universe(c.cell.n1, c.cell.n2)
            h = _largest_valid_hm(conjecture, u, c.cell.k, c.cell.l)
            vacuous_ok = (conjecture == 2 and c.status == VACUOUS and c.found_max == 0
                          and best_construction(2, u, (c.cell.k, c.cell.l)) is None)
            beaten = h > c.conjectured_bound
            ok = (c.found_max >= h
                  and (c.status == COUNTEREXAMPLE) == beaten
                  and (not beaten or c.found_max == h)
                  and (c.status in (CONFIRMED, BUDGET_EXHAUSTED, COUNTEREXAMPLE) or vacuous_ok))
            if not ok:
                disagreements.append(
                    f"conjecture {conjecture} {tuple(c.cell)}: status={c.status} "
                    f"found_max={c.found_max} |H|={h} conjectured_bound={c.conjectured_bound}")
    assert not disagreements, (
        "cells whose classification disagrees with the two-part Hilton-Milner family H(x,T) "
        "(see ROADMAP.md, open item 3):\n" + "\n".join(disagreements))
    for conjecture, report in reports.items():
        for c in report.cells:
            if c.status == CONFIRMED:
                assert c.construction_size <= c.found_max <= c.conjectured_bound, c
            if c.status == COUNTEREXAMPLE:
                assert c.proven_optimal  # never claimed on a budget-exhausted cell
                witness = Family.from_lists(Universe(c.cell.n1, c.cell.n2), c.witness)
                assert len(witness) == c.found_max > c.conjectured_bound
                assert is_intersecting(witness)
                if conjecture == 1:
                    assert not is_trivially_intersecting(witness)
                else:
                    assert is_two_sided_intersecting(witness)
        resumed = hunt(grid, conjecture, jsonl[conjecture], resume=True)
        assert {c.cell: c.nodes for c in resumed.cells} == {c.cell: c.nodes for c in report.cells}


@criterion(13, "branch-and-bound equals the subset oracle on 50+ seeded instances, all constraints")
def test_a13_oracle_equivalence():
    rng = random.Random(13)
    seen = {c: 0 for c in Constraint}
    trials = 0
    while trials < 55:
        n1 = rng.randint(1, 5)
        n2 = rng.choice([0, 0, rng.randint(1, 5)])
        u = Universe(n1, n2)
        profiles = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, n1)
            l = rng.randint(1, n2) if n2 else 0
            if (k, l) not in profiles:
                profiles.append((k, l))
        try:
            g = build_graph(u, profiles)
        except ValueError:
            continue
        if not 2 <= g.size <= 16:
            continue
        constraints = [Constraint.ANY, Constraint.NONTRIVIAL]
        if u.two_part:
            constraints.append(Constraint.TWO_SIDED)
        constraint = rng.choice(constraints)
        expected = exhaustive_oracle(u, profiles, constraint)
        result = max_intersecting(u, profiles, constraint, graph=g)
        assert result.proven_optimal
        assert result.max_size == expected, (n1, n2, profiles, constraint)
        seen[constraint] += 1
        trials += 1
    assert all(v > 0 for v in seen.values())
