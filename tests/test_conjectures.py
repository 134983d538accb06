import json

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import conjectures
from ekrlab.bounds import binomial, cross_bound, hm_bound, nontrivial_bound, two_sided_bound
from ekrlab.conjectures import (
    BUDGET_EXHAUSTED,
    CONFIRMED,
    COUNTEREXAMPLE,
    VACUOUS,
    ConstructionKind,
    ConstructionSpec,
    GridCell,
    ParameterGrid,
    _koenig_independent_set,
    _max_matching,
    best_construction,
    build_construction,
    canonical_spec,
    cross_oracle,
    evaluate_cell,
    expected_construction_size,
    feasible_kinds,
    hunt,
    max_cross_intersecting,
)
from ekrlab.families import (
    Family,
    Profile,
    Universe,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    iter_bits,
    profile_of,
)
from ekrlab.search import SearchBudget


class TestConstructions:
    def test_hm_one_part(self):
        u = Universe(5, 0)
        fam = build_construction(canonical_spec(ConstructionKind.HM_ONE_PART, u, (2, 0)))
        assert len(fam) == hm_bound(5, 2) == 3
        assert is_intersecting(fam) and not is_trivially_intersecting(fam)

    def test_nontrivial_x1_example(self):
        u = Universe(4, 4)
        fam = build_construction(canonical_spec(ConstructionKind.NONTRIVIAL_X1, u, (2, 2)))
        assert len(fam) == 18
        assert len(fam) == expected_construction_size(ConstructionKind.NONTRIVIAL_X1, u, (2, 2))

    def test_every_kind_matches_closed_form_and_predicate(self):
        for cell in ParameterGrid.default().cells:
            u = Universe(cell.n1, cell.n2)
            p = (cell.k, cell.l)
            for conj in (1, 2):
                for kind in feasible_kinds(conj, u, p):
                    fam = build_construction(canonical_spec(kind, u, p))
                    assert len(fam) == expected_construction_size(kind, u, p), (kind, cell)
                    assert all(profile_of(u, m) == Profile(*p) for m in fam.sets)

    def test_construction_size_is_a_bound_term(self):
        u = Universe(5, 4)
        assert max(
            expected_construction_size(ConstructionKind.NONTRIVIAL_X1, u, (2, 2)),
            expected_construction_size(ConstructionKind.NONTRIVIAL_X2, u, (2, 2)),
        ) == nontrivial_bound(u, (2, 2))
        assert max(
            expected_construction_size(ConstructionKind.TWO_SIDED_X1, u, (2, 2)),
            expected_construction_size(ConstructionKind.TWO_SIDED_X2, u, (2, 2)),
        ) == two_sided_bound(u, (2, 2))

    def test_infeasible_kinds_raise(self):
        u = Universe(4, 4)
        with pytest.raises(ValueError, match="trivially"):
            build_construction(canonical_spec(ConstructionKind.NONTRIVIAL_X1, u, (1, 2)))
        with pytest.raises(ValueError, match="two-sided"):
            build_construction(canonical_spec(ConstructionKind.TWO_SIDED_X2, u, (1, 1)))
        assert feasible_kinds(2, u, (1, 1)) == []
        assert best_construction(2, u, (1, 1)) is None

    def test_two_sided_anchors_work_with_one_sized_free_part(self):
        u = Universe(4, 4)
        for kind in (ConstructionKind.TWO_SIDED_X1, ConstructionKind.TWO_SIDED_X2):
            for p in ((1, 2), (2, 1)):
                fam = build_construction(canonical_spec(kind, u, p))
                assert is_two_sided_intersecting(fam)
                assert len(fam) == expected_construction_size(kind, u, p)

    def test_spec_invariants(self):
        u = Universe(4, 4)
        with pytest.raises(ValueError, match="avoid K"):
            ConstructionSpec(ConstructionKind.NONTRIVIAL_X1, u, Profile(2, 2), 0, (0, 1))
        with pytest.raises(ValueError, match="disjoint"):
            ConstructionSpec(ConstructionKind.TWO_SIDED_X2, u, Profile(2, 2), 4,
                             (0, 1), (4, 5), (4, 6))


class TestCrossIntersecting:
    def test_forced_partner_reduction_matches_full_enumeration(self):
        assert max_cross_intersecting(4, 2).max_total == cross_oracle(4, 2) == 6

    def test_known_values(self):
        assert max_cross_intersecting(5, 2).max_total == cross_bound(5, 2) == 8
        assert max_cross_intersecting(6, 2).max_total == cross_bound(6, 2)

    def test_witness_pair_is_cross_intersecting(self):
        r = max_cross_intersecting(5, 2)
        assert len(r.family_a) >= 1 and len(r.family_b) >= 1
        assert len(r.family_a) + len(r.family_b) == r.max_total
        for a in r.family_a.sets:
            for b in r.family_b.sets:
                assert a & b

    def test_budget(self):
        r = max_cross_intersecting(6, 2, budget=SearchBudget(node_limit=5))
        assert not r.proven_optimal
        assert r.max_total >= 1

    @staticmethod
    def _assert_valid_pair(r, k):
        a, b = r.family_a.sets, r.family_b.sets
        assert a and b
        assert len(a) + len(b) == r.max_total
        assert all(m.bit_count() == k for m in a + b)
        assert all(x & y for x in a for y in b)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 10)
                                     for k in range(1, min(4, n // 2) + 1)])
    def test_matches_closed_form_with_valid_witness(self, n, k):
        r = max_cross_intersecting(n, k)
        assert r.proven_optimal
        assert r.max_total == cross_bound(n, k)
        self._assert_valid_pair(r, k)

    @pytest.mark.parametrize("n,k", [(n, 1) for n in range(2, 9)] + [(4, 2)])
    def test_matches_oracle_where_it_runs(self, n, k):
        assert max_cross_intersecting(n, k).max_total == cross_oracle(n, k)

    def test_one_node_keeps_valid_incumbent(self):
        r = max_cross_intersecting(7, 3, SearchBudget(node_limit=1))
        assert (r.nodes, r.proven_optimal) == (2, False)
        self._assert_valid_pair(r, 3)

    def test_node_is_one_forced_pair(self):
        # the pairs (a, b) run over every k-set b meeting a = {0, ..., k-1}
        r = max_cross_intersecting(7, 3)
        assert r.nodes == binomial(7, 3) - binomial(4, 3) == 31

    def test_no_recursion_limit_at_a_thousand_sets(self):
        # C(14, 4) = 1001 candidate sets: a recursion one level per set would overflow
        r = max_cross_intersecting(14, 4, SearchBudget(node_limit=3))
        assert (r.nodes, r.proven_optimal) == (4, False)
        assert r.max_total == cross_bound(14, 4)
        self._assert_valid_pair(r, 4)

    def test_deterministic(self):
        assert max_cross_intersecting(8, 3) == max_cross_intersecting(8, 3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            max_cross_intersecting(3, 2)
        with pytest.raises(ValueError):
            cross_oracle(6, 2)


@st.composite
def bipartite_graphs(draw):
    """Left and right vertex bitsets over one index space, and an arbitrary row per index."""
    m = draw(st.integers(1, 6))
    left = draw(st.integers(0, (1 << m) - 1))
    right = draw(st.integers(0, (1 << m) - 1))
    adj = [draw(st.integers(0, (1 << m) - 1)) for _ in range(m)]
    return adj, left, right


class TestKoenig:
    @given(bipartite_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matching_and_independent_set_against_brute_force(self, graph):
        adj, left, right = graph
        size, mate = _max_matching(adj, left, right)
        pairs = [(mate[g], g) for g in iter_bits(right) if mate[g] >= 0]
        assert len(pairs) == size
        assert len({f for f, _ in pairs}) == size
        assert all(left >> f & 1 and adj[f] >> g & 1 for f, g in pairs)
        fbits, gbits = _koenig_independent_set(adj, left, right, mate)
        assert fbits & ~left == 0 and gbits & ~right == 0
        assert all(adj[f] & gbits == 0 for f in iter_bits(fbits))
        assert fbits.bit_count() + gbits.bit_count() == (
            left.bit_count() + right.bit_count() - size)
        lefts = list(iter_bits(left))
        best = 0
        for fsub in range(1 << len(lefts)):
            chosen = [f for i, f in enumerate(lefts) if fsub >> i & 1]
            blocked = 0
            for f in chosen:
                blocked |= adj[f]
            best = max(best, len(chosen) + (right & ~blocked).bit_count())
        assert best == fbits.bit_count() + gbits.bit_count()


class TestGrid:
    def test_default_grid_respects_preconditions(self):
        grid = ParameterGrid.default()
        assert len(grid.cells) == 36
        for c in grid.cells:
            assert 2 * c.k <= c.n1 and 2 * c.l <= c.n2

    def test_from_json_ranges(self):
        grid = ParameterGrid.from_json({
            "n1_range": [2, 3], "n2_range": [2, 3], "k_range": [1, 1], "l_range": [1, 1],
            "node_limit": 50, "time_limit_ms": 2000,
        })
        assert GridCell(2, 2, 1, 1) in grid.cells
        assert grid.node_limit == 50 and grid.time_limit_s == 2.0

    def test_from_json_explicit_cells(self):
        grid = ParameterGrid.from_json({"cells": [[4, 4, 2, 2]]})
        assert grid.cells == (GridCell(4, 4, 2, 2),)

    def test_invalid_cell_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid.from_json({"cells": [[3, 4, 2, 2]]})


class TestEvaluateCell:
    def test_conjecture1_reference_cell(self):
        res = evaluate_cell(1, GridCell(4, 4, 2, 2))
        assert res.status == CONFIRMED
        assert res.found_max <= 18
        assert res.construction_size == 18
        assert res.construction_size <= res.found_max <= res.conjectured_bound

    def test_conjecture2_reference_cell(self):
        res = evaluate_cell(2, GridCell(4, 4, 2, 2))
        assert res.status == CONFIRMED
        assert res.conjectured_bound == 18
        assert res.construction_size <= res.found_max

    def test_two_sided_vacuous_cell(self):
        res = evaluate_cell(2, GridCell(2, 2, 1, 1))
        assert res.status == VACUOUS
        assert res.found_max == 0 and res.proven_optimal

    def test_budget_exhausted_cell(self):
        res = evaluate_cell(1, GridCell(4, 4, 2, 2), node_limit=1)
        assert res.status == BUDGET_EXHAUSTED
        assert not res.proven_optimal

    def test_counterexample_cell_is_genuine(self):
        # the conjectured non-trivial bound fails at (5,5,2,2): a family anchored
        # at a mixed-profile excluded set beats both one-sided constructions
        res = evaluate_cell(1, GridCell(5, 5, 2, 2))
        assert res.status == COUNTEREXAMPLE
        assert res.proven_optimal
        assert res.found_max == 35 > res.conjectured_bound == 30
        witness = Family.from_lists(Universe(5, 5), res.witness)
        assert len(witness) == 35
        assert is_intersecting(witness)
        assert not is_trivially_intersecting(witness)

    def test_two_sided_counterexample_witness_valid(self):
        res = evaluate_cell(2, GridCell(5, 5, 2, 2))
        assert res.status == COUNTEREXAMPLE
        witness = Family.from_lists(Universe(5, 5), res.witness)
        assert len(witness) == res.found_max > res.conjectured_bound
        assert is_intersecting(witness)
        assert is_two_sided_intersecting(witness)

    def test_found_at_least_construction(self):
        for cell in [GridCell(4, 4, 2, 2), GridCell(5, 4, 2, 2), GridCell(4, 4, 1, 2)]:
            for conj in (1, 2):
                res = evaluate_cell(conj, cell)
                assert res.found_max >= res.construction_size


class TestHuntPersistence:
    def _small_grid(self):
        return ParameterGrid((GridCell(2, 2, 1, 1), GridCell(3, 3, 1, 1), GridCell(4, 4, 2, 2)))

    def test_report_files(self, tmp_path):
        jsonl = str(tmp_path / "hunt.jsonl")
        csv_path = str(tmp_path / "hunt.csv")
        report = hunt(self._small_grid(), 1, jsonl, csv_path)
        assert len(report.cells) == 3
        lines = [json.loads(line) for line in open(jsonl)]
        assert len(lines) == 3
        assert {"n1", "n2", "k", "l", "found_max", "conjectured_bound",
                "construction_size", "status"} <= set(lines[0])
        rows = open(csv_path).read().strip().splitlines()
        assert len(rows) == 4  # header + cells
        assert rows[0].startswith("conjecture,n1,n2,k,l")

    def test_resume_skips_completed(self, tmp_path):
        jsonl = str(tmp_path / "hunt.jsonl")
        grid = self._small_grid()
        first = hunt(ParameterGrid(grid.cells[:2]), 1, jsonl)
        assert len(first.cells) == 2
        nodes_before = {c.cell: c.nodes for c in first.cells}
        resumed = hunt(grid, 1, jsonl, resume=True)
        assert len(resumed.cells) == 3
        # previously completed cells were loaded, not recomputed
        for c in resumed.cells[:2]:
            assert c.nodes == nodes_before[c.cell]
        lines = [json.loads(line) for line in open(jsonl)]
        assert len(lines) == 3

    def test_no_counterexample_without_proof(self, tmp_path):
        jsonl = str(tmp_path / "hunt.jsonl")
        grid = ParameterGrid((GridCell(5, 5, 2, 2),), node_limit=3)
        report = hunt(grid, 1, jsonl)
        assert report.cells[0].status == BUDGET_EXHAUSTED

    def test_empty_grid(self, tmp_path):
        report = hunt(ParameterGrid(()), 1, str(tmp_path / "h.jsonl"))
        assert report.cells == []

    def test_interrupted_sweep_keeps_finished_cells(self, tmp_path, monkeypatch):
        grid = ParameterGrid((GridCell(2, 2, 1, 1), GridCell(3, 3, 1, 1), GridCell(4, 4, 2, 2),
                              GridCell(4, 4, 1, 2), GridCell(5, 4, 2, 2)))
        fresh = hunt(grid, 2, str(tmp_path / "fresh.jsonl"))
        jsonl = str(tmp_path / "hunt.jsonl")
        real = conjectures.evaluate_cell
        calls = []

        def interrupt_fourth(*args):
            calls.append(args)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(conjectures, "evaluate_cell", interrupt_fourth)
        with pytest.raises(KeyboardInterrupt):
            hunt(grid, 2, jsonl)
        monkeypatch.setattr(conjectures, "evaluate_cell", real)
        lines = [json.loads(line) for line in open(jsonl)]
        assert [(r["n1"], r["n2"], r["k"], r["l"]) for r in lines] == list(grid.cells[:3])
        resumed = hunt(grid, 2, jsonl, resume=True)

        def summary(report):
            return [(c.cell, c.found_max, c.status, c.nodes) for c in report.cells]

        assert summary(resumed) == summary(fresh)
        lines = [json.loads(line) for line in open(jsonl)]
        assert [(r["n1"], r["n2"], r["k"], r["l"]) for r in lines] == list(grid.cells)

    def test_parallel_workers_match_serial(self, tmp_path):
        grid = self._small_grid()
        serial = hunt(grid, 2, str(tmp_path / "s.jsonl"))
        parallel = hunt(grid, 2, str(tmp_path / "p.jsonl"), workers=2)
        s = [(c.cell, c.found_max, c.status) for c in serial.cells]
        p = [(c.cell, c.found_max, c.status) for c in parallel.cells]
        assert s == p

        def lines(path):
            recs = [json.loads(line) for line in open(path)]
            for r in recs:
                del r["elapsed_ms"]
            return recs

        assert lines(tmp_path / "s.jsonl") == lines(tmp_path / "p.jsonl")
