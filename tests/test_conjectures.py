import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import conjectures, families
from ekrlab.bounds import (_nontrivial_term, _two_sided_term, cross_bound, hm_bound,
                           nontrivial_bound, two_sided_bound)
from ekrlab.conjectures import (
    BUDGET_EXHAUSTED,
    CELL_ERROR,
    CONFIRMED,
    COUNTEREXAMPLE,
    VACUOUS,
    CellResult,
    GridCell,
    ParameterGrid,
    _koenig_independent_set,
    _max_matching,
    best_construction,
    cross_oracle,
    evaluate_cell,
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
from ekrlab.search import Constraint, SearchBudget


def _construction_cells():
    """Every (n1, n2, k, l) with n1, n2 <= 8, 2k <= n1, 2l <= n2, plus one-part (n1, 0, k, 0)."""
    for n1 in range(2, 9):
        for k in range(1, n1 // 2 + 1):
            yield n1, 0, k, 0
            for n2 in range(2, 9):
                for l in range(1, n2 // 2 + 1):
                    yield n1, n2, k, l


def _outcome(fn, *args):
    """fn's result, or the name of the exception type it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__


class TestConstructions:
    def test_hm_one_part(self):
        fam = best_construction(1, Universe(5, 0), (2, 0))
        assert len(fam) == hm_bound(5, 2) == 3
        assert is_intersecting(fam) and not is_trivially_intersecting(fam)

    def test_nontrivial_x1_example(self):
        fam = best_construction(1, Universe(4, 4), (2, 2))
        assert len(fam) == 18
        assert fam.sets[0] == 0b00110011  # a tie keeps anchor X1: x = 0, K = {1}

    def test_construction_size_is_a_bound_term(self):
        # the largest bound term over the feasible orientations, not the
        # ceiling: at k = 1 or l = 1 the ceiling can come from an infeasible
        # term, so conjecture 1 at (2,5,1,2) has ceiling 10 and construction 6
        assert nontrivial_bound(Universe(2, 5), (1, 2)) == 10
        assert len(best_construction(1, Universe(2, 5), (1, 2))) == 6
        for n1, n2, k, l in _construction_cells():
            u, p = Universe(n1, n2), (k, l)
            for conj, term in ((1, _nontrivial_term), (2, _two_sided_term)):
                sides = [(n1, k, n2, l), (n2, l, n1, k)]  # (anchor n, a, free n, f)
                feasible = [s for s in sides if s[1] >= 2 or (conj == 2 and s[3] >= 2)]
                # a one-part cell has no two-sided term, and no two-sided construction
                want = _outcome(lambda: max((term(*s) for s in feasible), default=None))
                best = _outcome(best_construction, conj, u, p)
                if best is None or isinstance(best, str):
                    assert best == want, (conj, n1, n2, k, l)
                    continue
                assert len(best) == want, (conj, n1, n2, k, l)
                assert all(profile_of(u, m) == Profile(k, l) for m in best.sets)

    def test_infeasible_kinds_raise(self):
        u = Universe(4, 4)
        x1, x2 = range(4), range(4, 8)
        with pytest.raises(ValueError, match="trivially"):  # a one-sized punctured star
            conjectures._construction(Constraint.NONTRIVIAL, u, x1, 1, x2, 2)
        with pytest.raises(ValueError, match="two-sided"):  # one-sized on both sides
            conjectures._construction(Constraint.TWO_SIDED, u, x2, 1, x1, 1)
        assert best_construction(2, u, (1, 1)) is None

    def test_two_sided_anchors_work_with_one_sized_free_part(self):
        # both orientations are built and self-checked: one has a one-sized
        # anchor, the other a one-sized free part
        u = Universe(4, 4)
        for p in ((1, 2), (2, 1)):
            fam = best_construction(2, u, p)
            assert is_two_sided_intersecting(fam)
            assert len(fam) == max(_two_sided_term(4, 1, 4, 2), _two_sided_term(4, 2, 4, 1)) == 10


class TestConstructionPin:
    # sha256 over best_construction's family sets, or the name of the
    # exception type it raised, per cell and conjecture; recorded on the
    # kind-table implementation this builder replaced
    DIGEST = "1fd8c4975a13c3639638afd50b3a6be7f43d8879057cbc0cea4eff5c9e778a3d"

    def test_constructions_match_pinned_digest(self):
        h = hashlib.sha256()
        for n1, n2, k, l in _construction_cells():
            u, p = Universe(n1, n2), (k, l)
            for conj in (1, 2):
                best = _outcome(best_construction, conj, u, p)
                sets = best if best is None or isinstance(best, str) else best.sets
                h.update(json.dumps([[n1, n2, k, l], conj, sets]).encode())
        assert h.hexdigest() == self.DIGEST


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
        r = max_cross_intersecting(6, 2, budget=SearchBudget(node_limit=1))
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
        # one pair (a, b) per orbit of the stabiliser of a = {0, ..., k-1}: |a & b| = 1, ..., k
        r = max_cross_intersecting(7, 3)
        assert r.nodes == 3

    def test_one_pair_per_orbit_proves_eleven_five(self):
        r = max_cross_intersecting(11, 5)
        assert (r.nodes, r.proven_optimal, r.max_total) == (5, True, cross_bound(11, 5))
        self._assert_valid_pair(r, 5)

    @pytest.mark.parametrize("call,message", [
        (lambda: cross_oracle(24, 12), "2704156 candidate sets exceed the oracle cap of 8"),
        (lambda: max_cross_intersecting(40, 20),
         "137846528820 candidate sets exceed the vertex cap of 20000"),
    ], ids=["oracle", "solver"])
    def test_cap_from_the_count(self, monkeypatch, call, message):
        def unbounded(*args):
            raise AssertionError("k-sets listed past the cap")

        for module in (conjectures, families):
            monkeypatch.setattr(module, "combinations", unbounded)
        with pytest.raises(ValueError, match=message):
            call()

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

    def test_precondition_is_the_ceilings_rule(self):
        # the same rule and message as cross_bound's
        for call in (max_cross_intersecting, cross_bound):
            with pytest.raises(ValueError, match=re.escape("needs 1 <= k and 2k <= n, got n=3, k=2")):
                call(3, 2)


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

    @pytest.mark.parametrize("data, cell", [
        ({"cells": [[4, 4, 0, 1]]}, [4, 4, 0, 1]),
        ({"cells": [[4, 4, -1, 2]]}, [4, 4, -1, 2]),
        ({"cells": [[4, 4, 2, 0]]}, [4, 4, 2, 0]),
        ({"n1_range": [2, 3], "n2_range": [2, 3], "k_range": [0, 1], "l_range": [1, 1]},
         [2, 2, 0, 1]),
    ], ids=["zero-k", "negative-k", "zero-l", "zero-k-range"])
    def test_cell_rule_is_the_ceilings_rule(self, data, cell):
        # such cells once loaded and each became an error record, failing the hunt
        with pytest.raises(ValueError, match=re.escape(f"cell {cell} needs 1 <= k")):
            ParameterGrid.from_json(data)
        with pytest.raises(ValueError, match=re.escape(f"cell {cell} needs 1 <= k")):
            ParameterGrid((GridCell(*cell),))

    def test_repeated_cell_rejected(self):
        # such a cell was once solved twice and written as two JSON lines
        message = re.escape("cell [4, 4, 2, 2] is listed twice")
        with pytest.raises(ValueError, match=message):
            ParameterGrid.from_json({"cells": [[4, 4, 2, 2], [3, 3, 1, 1], [4, 4, 2, 2]]})
        with pytest.raises(ValueError, match=message):
            ParameterGrid((GridCell(4, 4, 2, 2), GridCell(4, 4, 2, 2)))

    @pytest.mark.parametrize("extra, message", [
        ({"nodelimit": 5}, "^unknown grid key 'nodelimit'"),  # once ran with no limit
        ({"n1_range": [2, 3]}, "^a grid gives cells or ranges, not both"),  # once ignored
    ], ids=["unknown-key", "cells-and-ranges"])
    def test_grid_keys_checked(self, extra, message):
        with pytest.raises(ValueError, match=message):
            ParameterGrid.from_json({"cells": [[4, 4, 2, 2]], **extra})

    @pytest.mark.parametrize("budget", [{"node_limit": 0}, {"node_limit": -3},
                                        {"time_limit_ms": 0}, {"time_limit_ms": -5}])
    def test_zero_or_negative_budget_rejected(self, budget):
        # a zero limit once meant "no budget" and swept unbounded
        with pytest.raises(ValueError, match="must be positive"):
            ParameterGrid.from_json({"cells": [[4, 4, 2, 2]], **budget})

    @pytest.mark.parametrize("tl", [0, -5])
    def test_time_limit_error_names_the_key(self, tl):
        with pytest.raises(ValueError, match="^time_limit_ms must be positive"):
            ParameterGrid.from_json({"cells": [[4, 4, 2, 2]], "time_limit_ms": tl})

    @pytest.mark.parametrize("budget", [{"node_limit": 0}, {"time_limit_s": 0.0},
                                        {"time_limit_s": -1.0}])
    def test_grid_fields_must_be_positive(self, budget):
        with pytest.raises(ValueError, match="must be positive"):
            ParameterGrid((GridCell(4, 4, 2, 2),), **budget)


class TestEvaluateCell:
    @pytest.mark.parametrize("budget", [{"node_limit": 0}, {"time_limit_s": 0.0},
                                        {"node_limit": -1}])
    def test_zero_or_negative_budget_raises(self, budget):
        # a caller error, not a cell error: it is not recorded as an "error" cell
        with pytest.raises(ValueError, match="must be positive"):
            evaluate_cell(1, GridCell(4, 4, 2, 2), **budget)

    @pytest.mark.parametrize("conjecture", [0, 3])
    def test_unknown_conjecture_raises(self, conjecture):
        # a caller error like a bad budget, not an "error" cell
        with pytest.raises(ValueError, match="conjecture must be 1 or 2"):
            evaluate_cell(conjecture, GridCell(4, 4, 2, 2))

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


# one record per status, from the code path that writes it
_RECORDS = {
    CONFIRMED: lambda: evaluate_cell(1, GridCell(4, 4, 2, 2)),
    COUNTEREXAMPLE: lambda: evaluate_cell(1, GridCell(5, 5, 2, 2)),
    BUDGET_EXHAUSTED: lambda: evaluate_cell(1, GridCell(4, 4, 2, 2), node_limit=1),
    VACUOUS: lambda: evaluate_cell(2, GridCell(2, 2, 1, 1)),
    CELL_ERROR: lambda: CellResult(1, GridCell(4, 4, 2, 2), 0, 0, 0, CELL_ERROR, False, 0,
                                   0.0123456789, None, "RuntimeError: worker died"),
}


class TestCellRecord:
    @pytest.mark.parametrize("status", list(_RECORDS))
    def test_from_json_inverts_to_json(self, status):
        res = _RECORDS[status]()
        assert res.status == status
        assert (res.witness is not None) == (status == COUNTEREXAMPLE)
        assert (res.error is not None) == (status == CELL_ERROR)
        back = CellResult.from_json(json.loads(json.dumps(res.to_json(), sort_keys=True)))
        # equal apart from elapsed_s, which the record keeps to the microsecond
        assert back == dataclasses.replace(res, elapsed_s=back.elapsed_s)
        assert back.elapsed_s == pytest.approx(res.elapsed_s, abs=1e-6)
        assert back.to_json() == res.to_json()


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

    def test_failed_csv_write_keeps_previous_table(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "hunt.csv"
        hunt(self._small_grid(), 1, str(tmp_path / "hunt.jsonl"), str(csv_path))
        before = csv_path.read_bytes()
        real_writer = conjectures.csv.writer

        class HeaderThenFail:
            def __init__(self, fh):
                self.inner = real_writer(fh)
                self.rows = 0

            def writerow(self, row):
                if self.rows == 1:
                    raise OSError("disk full")
                self.rows += 1
                self.inner.writerow(row)

        monkeypatch.setattr(conjectures.csv, "writer", HeaderThenFail)
        with pytest.raises(OSError, match="disk full"):
            hunt(ParameterGrid((GridCell(2, 2, 1, 1),)), 2,
                 str(tmp_path / "other.jsonl"), str(csv_path))
        assert csv_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["hunt.csv", "hunt.jsonl", "other.jsonl"]

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

    def test_resume_reruns_error_cells(self, tmp_path):
        jsonl = tmp_path / "hunt.jsonl"
        cell = GridCell(4, 4, 2, 2)
        failed = conjectures.CellResult(1, cell, 0, 0, 0, conjectures.CELL_ERROR, False, 0, 0.0,
                                        None, "RuntimeError: worker died")
        jsonl.write_text(json.dumps(failed.to_json(), sort_keys=True) + "\n")
        resumed = hunt(ParameterGrid((cell,)), 1, str(jsonl), resume=True)
        fresh = evaluate_cell(1, cell)
        assert fresh.status != conjectures.CELL_ERROR
        [c] = resumed.cells
        assert (c.status, c.found_max, c.nodes, c.error) == \
            (fresh.status, fresh.found_max, fresh.nodes, None)
        lines = [json.loads(line) for line in open(jsonl)]
        assert [r["status"] for r in lines] == [conjectures.CELL_ERROR, fresh.status]
        # the new record now counts: a second resume keeps it and runs nothing
        again = hunt(ParameterGrid((cell,)), 1, str(jsonl), resume=True)
        assert again.cells[0].status == fresh.status
        assert len(open(jsonl).readlines()) == 2

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
        fresh = hunt(grid, 2, str(tmp_path / "fresh.jsonl"), str(tmp_path / "fresh.csv"))
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
        resumed = hunt(grid, 2, jsonl, str(tmp_path / "hunt.csv"), resume=True)

        def summary(report):
            return [(c.cell, c.found_max, c.status, c.nodes) for c in report.cells]

        assert summary(resumed) == summary(fresh)
        assert (tmp_path / "hunt.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        lines = [json.loads(line) for line in open(jsonl)]
        assert [(r["n1"], r["n2"], r["k"], r["l"]) for r in lines] == list(grid.cells)

    def test_resume_reruns_a_truncated_last_record(self, tmp_path):
        # a sweep killed mid-write leaves half a line: that cell runs again
        grid = self._small_grid()
        fresh = hunt(grid, 1, str(tmp_path / "fresh.jsonl"))
        jsonl = tmp_path / "hunt.jsonl"
        hunt(ParameterGrid(grid.cells[:2]), 1, str(jsonl))
        with open(jsonl, "a", encoding="utf-8") as fh:
            fh.write('{"conjecture": 1, "n1": 2, "n')
        resumed = hunt(grid, 1, str(jsonl), resume=True)
        assert [(c.cell, c.found_max, c.status, c.nodes) for c in resumed.cells] == \
            [(c.cell, c.found_max, c.status, c.nodes) for c in fresh.cells]
        text = jsonl.read_text()
        assert text.endswith("\n")
        lines = [json.loads(line) for line in text.splitlines()]
        assert [(r["n1"], r["n2"], r["k"], r["l"]) for r in lines] == list(grid.cells)

    def test_resume_keeps_an_unterminated_complete_record(self, tmp_path):
        grid = self._small_grid()
        jsonl = tmp_path / "hunt.jsonl"
        first = hunt(ParameterGrid(grid.cells[:2]), 1, str(jsonl))
        jsonl.write_text(jsonl.read_text().rstrip("\n"))
        resumed = hunt(grid, 1, str(jsonl), resume=True)
        assert [c.nodes for c in resumed.cells[:2]] == [c.nodes for c in first.cells]
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [(r["n1"], r["n2"], r["k"], r["l"]) for r in lines] == list(grid.cells)

    @pytest.mark.parametrize("where", ["inner", "terminated last"])
    def test_resume_raises_on_a_malformed_record(self, tmp_path, where):
        grid = self._small_grid()
        jsonl = tmp_path / "hunt.jsonl"
        hunt(ParameterGrid(grid.cells[:2]), 1, str(jsonl))
        lines = jsonl.read_text().splitlines()
        if where == "inner":
            lines[0] = lines[0][:20]
        else:
            lines.append('{"conjecture": 1, "n1": 2, "n')
        text = "\n".join(lines) + "\n"
        jsonl.write_text(text)
        with pytest.raises(json.JSONDecodeError):
            hunt(grid, 1, str(jsonl), resume=True)
        assert jsonl.read_text() == text

    @pytest.mark.parametrize("where", ["inner", "terminated last", "unterminated last"])
    @pytest.mark.parametrize("record,match", [
        ('{"conjecture": 1, "n1": 2}', "lacks the key 'n2'"),
        ("[1, 2]", "must be a JSON object"),
    ], ids=["missing-key", "array"])
    def test_resume_raises_on_a_wrong_shape_record(self, tmp_path, where, record, match):
        grid = self._small_grid()
        jsonl = tmp_path / "hunt.jsonl"
        hunt(ParameterGrid(grid.cells[:2]), 1, str(jsonl))
        lines = jsonl.read_text().splitlines()
        lines.insert(1 if where == "inner" else len(lines), record)
        text = "\n".join(lines) + ("" if where == "unterminated last" else "\n")
        jsonl.write_text(text)
        with pytest.raises(ValueError, match=match):
            hunt(grid, 1, str(jsonl), resume=True)
        assert jsonl.read_text() == text

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_raises(self, tmp_path, workers):
        # once ran serially and passed; rejected before the old report is deleted
        jsonl = tmp_path / "hunt.jsonl"
        jsonl.write_text("kept\n")
        with pytest.raises(ValueError, match="workers must be at least 1"):
            hunt(self._small_grid(), 1, str(jsonl), workers=workers)
        assert jsonl.read_text() == "kept\n"

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
