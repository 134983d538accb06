import itertools
import random
from math import comb

import pytest

from ekrlab import search
from ekrlab.bounds import ekr_bound, frankl_bound, star_size
from ekrlab.families import (
    Family,
    Universe,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    profile_of,
)
from ekrlab.search import (
    Constraint,
    SearchBudget,
    build_graph,
    exhaustive_oracle,
    max_intersecting,
)


class TestBuildGraph:
    def test_small_two_part(self):
        g = build_graph(Universe(2, 2), [(1, 1)])
        assert g.size == 4
        assert g.edge_count() == 4

    def test_one_part_triangle(self):
        g = build_graph(Universe(3, 0), [(2, 0)])
        assert g.size == 3
        assert g.edge_count() == 3

    def test_rook_graph(self):
        g = build_graph(Universe(3, 3), [(1, 1)])
        assert g.size == 9
        assert g.edge_count() == 18

    def test_vertex_cap_error_names_count(self, monkeypatch):
        monkeypatch.setattr(search, "VERTEX_CAP", 10)
        with pytest.raises(ValueError, match="36"):
            build_graph(Universe(4, 4), [(2, 2)])

    def test_caps_are_checked_before_enumeration(self, monkeypatch):
        # C(40,20) candidates: counting them must not need building them
        def unbounded(*args):
            raise AssertionError("candidate sets enumerated past the cap")

        monkeypatch.setattr(search, "candidate_sets", unbounded)
        for call in (build_graph, exhaustive_oracle):
            with pytest.raises(ValueError, match="137846528820 candidate sets exceed"):
                call(Universe(40, 0), [(20, 0)])

    def test_adjacency_symmetric_irreflexive(self):
        g = build_graph(Universe(3, 3), [(1, 1), (2, 2)])
        for i in range(g.size):
            assert not g.adjacency[i] >> i & 1
            for j in range(g.size):
                assert (g.adjacency[i] >> j & 1) == (g.adjacency[j] >> i & 1)


class TestOracle:
    def test_spec_values(self):
        assert exhaustive_oracle(Universe(2, 2), [(1, 1)]) == 2
        assert exhaustive_oracle(Universe(3, 0), [(1, 0)]) == 1
        # bipartite (1,1)-families are stars, so nothing non-trivial exists
        assert exhaustive_oracle(Universe(3, 3), [(1, 1)], Constraint.NONTRIVIAL) == 0

    def test_cap(self):
        with pytest.raises(ValueError):
            exhaustive_oracle(Universe(4, 4), [(2, 2)])


def _random_instance(rng, max_vertices=14):
    while True:
        n1 = rng.randint(1, 5)
        n2 = rng.choice([0, 0, rng.randint(1, 5)])
        u = Universe(n1, n2)
        profiles = []
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(0 if (n1 == 0) else 1, n1)
            l = rng.randint(1, n2) if n2 else 0
            if (k, l) not in profiles:
                profiles.append((k, l))
        try:
            g = build_graph(u, profiles)
        except ValueError:
            continue
        if 2 <= g.size <= max_vertices:
            constraints = [Constraint.ANY, Constraint.NONTRIVIAL]
            if u.two_part:
                constraints.append(Constraint.TWO_SIDED)
            return u, profiles, rng.choice(constraints)


def _profile_lists(max_n, constraint):
    """Every one- and two-profile list on Universe(n1, n2), 1 <= n1 <= max_n, n2 <= max_n."""
    for n1, n2 in itertools.product(range(1, max_n + 1), range(max_n + 1)):
        u = Universe(n1, n2)
        if constraint is Constraint.TWO_SIDED and not u.two_part:
            continue
        profs = [(k, l) for k in range(1, n1 + 1) for l in range(min(n2, 1), n2 + 1)]
        for size in (1, 2):
            for profiles in itertools.combinations(profs, size):
                yield u, profiles


class TestOracleEquivalence:
    def test_fifty_seeded_instances(self):
        rng = random.Random(20240817)
        per_constraint = {c: 0 for c in Constraint}
        for _ in range(60):
            u, profiles, constraint = _random_instance(rng)
            expected = exhaustive_oracle(u, profiles, constraint)
            result = max_intersecting(u, profiles, constraint)
            assert result.proven_optimal
            assert result.max_size == expected, (u, profiles, constraint)
            per_constraint[constraint] += 1
            _check_witness(result, u, profiles, constraint)
        assert all(n > 0 for n in per_constraint.values())

    @pytest.mark.parametrize("constraint", list(Constraint), ids=lambda c: c.value)
    def test_every_small_profile_list(self, constraint):
        # every list with n1, n2 <= 5 and at most 12 candidates, with and
        # without symmetry: the dominance and orbital prunes never lose the maximum
        runs = 0
        for u, profiles in _profile_lists(5, constraint):
            if sum(comb(u.n1, k) * comb(u.n2, l) for k, l in profiles) > 12:
                continue
            want = exhaustive_oracle(u, profiles, constraint)
            for symmetry in (False, True):
                r = max_intersecting(u, profiles, constraint, symmetry=symmetry)
                assert r.proven_optimal
                assert r.max_size == want, (u, profiles, symmetry)
                _check_witness(r, u, profiles, constraint)
                runs += 1
        assert runs > 500

    def test_mixed_profile_instance(self):
        u = Universe(3, 3)
        profiles = [(1, 1), (2, 1)]
        for c in Constraint:
            assert max_intersecting(u, profiles, c).max_size == \
                exhaustive_oracle(u, profiles, c)


def _check_witness(result, u, profiles, constraint):
    w = result.witness
    assert len(w) == result.max_size
    assert is_intersecting(w)
    allowed = {tuple(p) for p in profiles}
    for m in w.sets:
        assert tuple(profile_of(u, m)) in allowed
    if result.max_size == 0:
        return
    if constraint is Constraint.NONTRIVIAL:
        assert not is_trivially_intersecting(w)
    elif constraint is Constraint.TWO_SIDED:
        assert is_two_sided_intersecting(w)


class TestSolver:
    def test_rook_any(self):
        r = max_intersecting(Universe(3, 3), [(1, 1)])
        assert r.max_size == 3 and r.proven_optimal

    def test_one_part_ekr_and_hm(self):
        assert max_intersecting(Universe(5, 0), [(2, 0)]).max_size == 4
        r = max_intersecting(Universe(5, 0), [(2, 0)], Constraint.NONTRIVIAL)
        assert r.max_size == 3
        _check_witness(r, Universe(5, 0), [(2, 0)], Constraint.NONTRIVIAL)

    def test_two_part_frankl_cell(self):
        r = max_intersecting(Universe(4, 4), [(2, 2)])
        assert r.max_size == 18 == frankl_bound(Universe(4, 4), (2, 2))

    def test_monotone_in_constraint(self):
        for u, profiles in [(Universe(4, 4), [(2, 2)]), (Universe(4, 3), [(2, 1)])]:
            any_max = max_intersecting(u, profiles).max_size
            nt = max_intersecting(u, profiles, Constraint.NONTRIVIAL).max_size
            ts = max_intersecting(u, profiles, Constraint.TWO_SIDED).max_size
            assert any_max >= nt >= ts

    def test_star_is_lower_bound(self):
        for n1, n2, profiles in [(4, 4, [(2, 2)]), (5, 3, [(1, 1), (2, 1)])]:
            u = Universe(n1, n2)
            r = max_intersecting(u, profiles)
            best_star = max(star_size(u, profiles, "X1"), star_size(u, profiles, "X2"))
            assert best_star <= r.max_size <= build_graph(u, profiles).size

    def test_determinism(self):
        u, profiles = Universe(4, 4), [(2, 2)]
        a = max_intersecting(u, profiles, Constraint.NONTRIVIAL)
        b = max_intersecting(u, profiles, Constraint.NONTRIVIAL)
        assert a.max_size == b.max_size
        assert a.witness == b.witness

    def test_symmetry_pruning_same_size(self):
        for constraint in Constraint:
            plain = max_intersecting(Universe(4, 4), [(2, 2)], constraint)
            pruned = max_intersecting(Universe(4, 4), [(2, 2)], constraint, symmetry=True)
            assert plain.max_size == pruned.max_size
            _check_witness(pruned, Universe(4, 4), [(2, 2)], constraint)

    @pytest.mark.parametrize("constraint", list(Constraint), ids=lambda c: c.value)
    def test_symmetry_keeps_every_small_maximum(self, constraint):
        for u, profiles in _profile_lists(4, constraint):
            plain = max_intersecting(u, profiles, constraint)
            pruned = max_intersecting(u, profiles, constraint, symmetry=True)
            assert plain.proven_optimal and pruned.proven_optimal
            assert pruned.max_size == plain.max_size, (u, profiles)
            _check_witness(pruned, u, profiles, constraint)

    @pytest.mark.parametrize("profile", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("symmetry", [False, True])
    def test_two_sided_proves_an_empty_cell(self, profile, symmetry):
        # any two (2,3)-sets of (4,4) share an X2 element (3 + 3 > 4), and any
        # two (3,2)-sets an X1 element, so no family is two-sided
        r = max_intersecting(Universe(4, 4), [profile], Constraint.TWO_SIDED, symmetry=symmetry)
        assert r.proven_optimal
        assert r.max_size == 0
        assert r.nodes < 1000

    def test_node_budget_returns_incumbent(self):
        r = max_intersecting(Universe(4, 4), [(2, 2)], budget=SearchBudget(node_limit=10))
        assert not r.proven_optimal
        assert r.max_size >= 1
        assert r.nodes <= 11

    def test_time_budget(self):
        r = max_intersecting(Universe(5, 5), [(2, 2)],
                             budget=SearchBudget(time_limit_s=1e-9))
        assert not r.proven_optimal

    def test_seed_family_must_be_valid(self):
        u = Universe(4, 4)
        bad = Family.from_lists(u, [[0, 1, 4, 5], [2, 3, 6, 7]])  # disjoint pair
        with pytest.raises(ValueError):
            max_intersecting(u, [(2, 2)], seed=bad)
        wrong_universe = Family.from_lists(Universe(3, 3), [[0, 1, 3, 4]])
        with pytest.raises(ValueError):
            max_intersecting(u, [(2, 2)], seed=wrong_universe)

    def test_graph_must_match_the_question(self):
        # a graph of another universe once gave a "proven" 18 for (5,5),(2,2),
        # whose maximum is 40, with a witness of profile (3,1)
        u = Universe(5, 5)
        with pytest.raises(ValueError, match="graph"):
            max_intersecting(u, [(2, 2)], graph=build_graph(Universe(4, 4), [(2, 2)]))
        # a graph of other profiles once answered the (1,1) question instead
        with pytest.raises(ValueError, match="graph"):
            max_intersecting(u, [(2, 2)], graph=build_graph(u, [(1, 1)]))
        r = max_intersecting(u, [(2, 2)], graph=build_graph(u, [(2, 2)]))
        assert (r.max_size, r.proven_optimal) == (40, True)

    def test_result_json_shape(self):
        r = max_intersecting(Universe(2, 2), [(1, 1)])
        data = r.to_json()
        assert set(data) == {"max_size", "witness", "proven_optimal", "nodes", "elapsed_ms"}


class TestEkrReproductionSmall:
    def test_one_part_grid(self):
        for n in range(2, 7):
            for k in range(1, n // 2 + 1):
                assert max_intersecting(Universe(n, 0), [(k, 0)]).max_size == ekr_bound(n, k)

    def test_two_part_grid(self):
        for n1 in range(2, 5):
            for n2 in range(2, 5):
                for k in range(1, n1 // 2 + 1):
                    for l in range(1, n2 // 2 + 1):
                        u = Universe(n1, n2)
                        assert max_intersecting(u, [(k, l)]).max_size == frankl_bound(u, (k, l))

