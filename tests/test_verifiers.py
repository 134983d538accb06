import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from ekrlab import verifiers
from ekrlab.cyclic import (
    J_BASE,
    all_intervals,
    find_blocking_pairs,
    interval_distance,
    point_distance,
    proj_intersecting,
)
from ekrlab.families import iter_bits
from ekrlab.verifiers import InfeasibleExhaustive, SAMPLED, verify_check


class TestDistanceGraphCheck:
    def test_exhaustive_small(self):
        report = verify_check("1", {"n": 7, "k": 3})
        assert report.passed
        assert report.instances > 0

    def test_grid(self):
        for n in range(3, 11):
            for k in range(1, (n - 1) // 2 + 1):
                assert verify_check("1", {"n": n, "k": k}).passed

    def test_bad_hypothesis(self):
        with pytest.raises(ValueError, match="2k < n"):
            verify_check("1", {"n": 6, "k": 3})

    def test_sampled(self):
        report = verify_check("1", {"n": 12, "k": 4}, mode=SAMPLED, seed=5, trials=200)
        assert report.passed and report.instances == 400


class TestIntervalDispersionCheck:
    def test_exhaustive_example(self):
        report = verify_check("2", {"n": 10, "k": 2, "b": 2})
        assert report.passed
        assert report.instances == 252  # all 5-subsets of the 10 intervals

    def test_bad_hypothesis(self):
        with pytest.raises(ValueError, match=r"2\(k\+b\)"):
            verify_check("2", {"n": 7, "k": 2, "b": 2})


class TestBlockingPairExistence:
    def test_vacuous_at_tiny_corner(self):
        # no proj-intersecting family of >= 9 unit rectangles fits in Z_5 x Z_5
        report = verify_check("3", {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1})
        assert report.passed
        assert report.instances == 0

    def test_nonvacuous_lines(self):
        report = verify_check("3", {"n1": 10, "n2": 10, "k": 1, "l": 1, "b": 1})
        assert report.passed
        assert report.instances == 220  # line subsets of size >= 9

    def test_sampled_mode(self):
        report = verify_check("3", {"n1": 10, "n2": 10, "k": 1, "l": 1, "b": 1},
                              mode=SAMPLED, seed=3, trials=50)
        assert report.passed
        assert report.instances > 0

    @pytest.mark.parametrize("mode", ["exhaustive", SAMPLED])
    def test_space_smaller_than_minimum_family(self, monkeypatch, mode):
        # 64 unit rectangles against a minimum family of 9b^2 = 81: no instance, no draw
        def no_draw(*args):
            raise AssertionError("drew a family from a space smaller than the minimum size")

        monkeypatch.setattr(verifiers, "_sample_family", no_draw)
        report = verify_check("3", {"n1": 8, "n2": 8, "k": 1, "l": 1, "b": 3},
                              mode=mode, seed=1, trials=50)
        assert report.passed
        assert (report.instances, report.hypothesis_rejections) == (0, 0)


class TestThirdRectangleOverlap:
    def test_exhaustive(self):
        report = verify_check("4", {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1})
        assert report.passed and report.instances > 0

    def test_wider(self):
        report = verify_check("4", {"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2},
                              mode=SAMPLED, seed=11, trials=300)
        assert report.passed


class TestSingleShapeChecks:
    def test_distinct_base_collapse_exhaustive(self):
        report = verify_check("5", {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1})
        assert report.passed and report.instances > 0

    def test_distinct_base_collapse_sampled(self):
        report = verify_check("5", {"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2},
                              mode=SAMPLED, seed=3, trials=40)
        assert report.passed and report.instances == 40

    def test_total_count_bound(self):
        assert verify_check("c1", {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1}).passed

    def test_multiplicity_split_sampled(self):
        report = verify_check("6", {"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2},
                              mode=SAMPLED, seed=3, trials=40)
        assert report.passed and report.instances == 40

    def test_five_way_bound(self):
        assert verify_check("c2", {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1}).passed

    def test_strict_box_hypothesis(self):
        with pytest.raises(ValueError, match="<"):
            verify_check("5", {"n1": 4, "n2": 5, "k": 1, "l": 1, "b": 1})


class TestMultiShapeChecks:
    def test_no_mixed_blocking_pairs_sampled(self):
        report = verify_check("7", {"n1": 5, "n2": 5, "b": 1, "shapes": [[1, 1]]},
                              mode=SAMPLED, seed=1, trials=1000)
        assert report.passed
        assert report.instances == 1000

    def test_no_mixed_blocking_pairs_two_shapes(self):
        report = verify_check("7", {"n1": 9, "n2": 9, "b": 2, "shapes": [[1, 1], [2, 1]]},
                              mode=SAMPLED, seed=2, trials=200)
        assert report.passed

    def test_per_shape_bounds(self):
        report = verify_check("8", {"n1": 5, "n2": 5, "b": 1, "shapes": [[1, 1]]},
                              mode=SAMPLED, seed=5, trials=300)
        assert report.passed and report.instances == 300

    def test_large_ground_bounds(self):
        report = verify_check("9", {"n1": 10, "n2": 10, "b": 1, "shapes": [[1, 1]]},
                              mode=SAMPLED, seed=7, trials=500)
        assert report.passed and report.instances == 500

    def test_weighted_sum_bound(self):
        report = verify_check("c3", {"n1": 10, "n2": 10, "b": 1, "shapes": [[1, 1]]},
                              mode=SAMPLED, seed=7, trials=500)
        assert report.passed and report.instances == 500

    @pytest.mark.parametrize("check_id", ["7", "8", "9", "c3"])
    def test_repeated_shape_rejected(self, check_id):
        # the shape space merges copies, so a repeated shape would run a smaller check
        with pytest.raises(ValueError, match=r"shape \(1,1\) is listed twice"):
            verify_check(check_id, {"n1": 10, "n2": 10, "b": 1, "shapes": [[1, 1], [1, 1]]})

    def test_shape_hypothesis_validated(self):
        with pytest.raises(ValueError, match="within 1..b"):
            verify_check("9", {"n1": 12, "n2": 12, "b": 1, "shapes": [[2, 1]]},
                         mode=SAMPLED, seed=1)


class TestVerifierPlumbing:
    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            verify_check("42", {})

    def test_sampled_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            verify_check("1", {"n": 9, "k": 2}, mode=SAMPLED)

    def test_infeasible_exhaustive_advises_sampling(self):
        with pytest.raises(InfeasibleExhaustive, match="sampled"):
            verify_check("2", {"n": 40, "k": 8, "b": 8})

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        real = getattr(verifiers, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verifiers, name, counted)
        return calls

    @pytest.mark.parametrize("check,params,dist", [
        ("1", {"n": 1500, "k": 3}, "point_distance"),
        ("2", {"n": 1500, "k": 1, "b": 1}, "interval_distance"),
        ("4", {"n1": 1500, "n2": 10, "k": 1, "l": 1, "b": 1}, "interval_distance"),
    ])
    def test_exhaustive_cap_before_any_quadratic_relation(self, monkeypatch, check, params, dist):
        # an n x n relation at n = 1500 is over a million distance calls
        calls = self._count_calls(monkeypatch, dist)
        with pytest.raises(InfeasibleExhaustive, match="sampled"):
            verify_check(check, params)
        assert len(calls) < 1500

    @pytest.mark.parametrize("check,params,dist,pairs", [
        ("1", {"n": 1500, "k": 3}, "point_distance", 6 + 3),  # a 4-subset and a 3-subset
        ("2", {"n": 1500, "k": 1, "b": 1}, "interval_distance", 3),  # one 3-subset
    ])
    def test_sampled_draw_is_judged_pairwise(self, monkeypatch, check, params, dist, pairs):
        calls = self._count_calls(monkeypatch, dist)
        report = verify_check(check, params, mode=SAMPLED, seed=1, trials=1)
        assert report.passed and 1 <= len(calls) <= pairs

    def test_report_json(self):
        report = verify_check("1", {"n": 7, "k": 3})
        data = report.to_json()
        assert set(data) == {"lemma", "params", "mode", "instances",
                             "counterexamples", "hypothesis_rejections", "elapsed_ms"}
        assert data["lemma"] == "1"
        assert data["counterexamples"] == []

    def test_sampled_determinism(self):
        a = verify_check("7", {"n1": 5, "n2": 5, "b": 1, "shapes": [[1, 1]]},
                         mode=SAMPLED, seed=9, trials=50)
        b = verify_check("7", {"n1": 5, "n2": 5, "b": 1, "shapes": [[1, 1]]},
                         mode=SAMPLED, seed=9, trials=50)
        assert a.instances == b.instances
        assert a.counterexamples == b.counterexamples
        assert a.hypothesis_rejections == b.hypothesis_rejections

    @pytest.mark.parametrize("check_id,params", [
        ("1", {"n": 24, "k": 5}),
        ("7", {"n1": 5, "n2": 5, "b": 1, "shapes": [[1, 1]]}),
    ])
    @pytest.mark.parametrize("trials", [0, -3])
    def test_sampled_needs_a_trial(self, check_id, params, trials):
        # zero or negative trials once passed vacuously (check 1 reported -6 instances)
        with pytest.raises(ValueError, match="trials >= 1"):
            verify_check(check_id, params, mode=SAMPLED, seed=1, trials=trials)

    def test_exhaustive_ignores_trials(self):
        assert verify_check("1", {"n": 7, "k": 3}, trials=0).instances > 0

    def test_counterexample_detection_wired(self):
        # a deliberately false inequality variant is not exposed; instead check
        # that a failing conclusion would be reported, using check 6 with l = 1
        # whose hypothesis (1..l-1 distinct bases) is unsatisfiable: zero instances
        report = verify_check("6", {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1})
        assert report.instances == 0 and report.passed


# Digests of to_json() minus elapsed_ms, recorded before the verifiers shared
# one exhaustive/sampled driver: the refactor must not change any report.
# The sampled digests of checks 5, 6, 8 and c1 were re-recorded when the
# sampled families moved from a shuffle-and-walk draw to uniform candidate
# picks: the law of a drawn family is the same, the random stream is not, so
# only their hypothesis_rejections counts changed (every report still passes
# with instances equal to trials).  Reports without rejections, and checks 1,
# 2 and 4, which draw their own instances, keep their digests.
_SMALL = {"n1": 5, "n2": 5, "k": 1, "l": 1, "b": 1}
_WIDE = {"n1": 9, "n2": 9, "k": 2, "l": 2, "b": 2}
_LINES = {"n1": 10, "n2": 10, "k": 1, "l": 1, "b": 1}
_UNIT5 = {"n1": 5, "n2": 5, "b": 1, "shapes": [[1, 1]]}
_TWO_SHAPES = {"n1": 9, "n2": 9, "b": 2, "shapes": [[1, 1], [2, 1]]}
_UNIT10 = {"n1": 10, "n2": 10, "b": 1, "shapes": [[1, 1]]}

# check id -> (exhaustive params, exhaustive digest, sampled params, digests at seeds 1 and 2)
PINS = {
    "1": ({"n": 9, "k": 3}, "9b5a3f1edb4b8487",
          {"n": 12, "k": 4}, ("7efd876546521c6e", "7efd876546521c6e")),
    "2": ({"n": 10, "k": 2, "b": 2}, "8d8d7638f0e79f78",
          {"n": 12, "k": 2, "b": 3}, ("8d2176048920d804", "8d2176048920d804")),
    "3": (_LINES, "09f7cb20099dd98c", _LINES, ("62c03d070bfc53a0", "62c03d070bfc53a0")),
    "4": (_SMALL, "eafdfb9f65de30dd", _WIDE, ("1c806dec26039e6e", "b497032dc0c38ea7")),
    "5": (_SMALL, "418b1f99188f74e1", _WIDE, ("bffa95f350dd2b3a", "37f04c0c1db29e4d")),
    "6": (_SMALL, "9a746ec06b31bc67", _WIDE, ("83796ed56a31afa6", "4d35f15037cbbb3a")),
    "7": (_UNIT5, "a182c59d358d4eca", _TWO_SHAPES, ("98fbd8be59d5e068", "98fbd8be59d5e068")),
    "8": (_UNIT5, "e5446ebd4ecd2a6b", _TWO_SHAPES, ("087eb81521fc5b16", "92872eb8dad9fd74")),
    "9": (_UNIT10, "f0114c2362c4c5c0", _UNIT10, ("ae8e7ec4b68275e4", "ae8e7ec4b68275e4")),
    "c1": (_SMALL, "bd236322e25ac09a", _WIDE, ("75a11da3894008ce", "b867e6f314c6f0d8")),
    "c2": (_SMALL, "17abfc498bac18f4", _WIDE, ("58b190685dedbd19", "58b190685dedbd19")),
    "c3": (_UNIT10, "49cd99cfe80622b2", _UNIT10, ("f585c80a7d56cd74", "f585c80a7d56cd74")),
}


def _digest(report) -> str:
    data = report.to_json()
    data.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("check_id", sorted(PINS))
def test_exhaustive_report_pinned(check_id):
    params, want, _, _ = PINS[check_id]
    assert _digest(verify_check(check_id, params)) == want


@pytest.mark.parametrize("check_id", sorted(PINS))
@pytest.mark.parametrize("seed", [1, 2])
def test_sampled_report_pinned(check_id, seed):
    _, _, params, wants = PINS[check_id]
    report = verify_check(check_id, params, mode=SAMPLED, seed=seed, trials=60)
    assert _digest(report) == wants[seed - 1]


def test_exhaustive_c3_reproducible_without_seed(monkeypatch):
    real = verifiers.weighted_sums

    def run():
        seen = []

        def recording(sizes, lambdas, n1, n2):
            if len(seen) < 50:
                seen.append(dict(lambdas))
            return real(sizes, lambdas, n1, n2)

        monkeypatch.setattr(verifiers, "weighted_sums", recording)
        verify_check("c3", _UNIT10)
        return seen

    first = run()
    assert len(first) == 50
    assert run() == first


@pytest.mark.parametrize("check_id,params,missing", [
    ("1", {"n": 9}, "k"),
    ("3", {}, "n1"),
    ("7", {"n1": 5, "n2": 5, "b": 1}, "shapes"),
    ("c2", {"n1": 5, "n2": 5, "k": 1, "b": 1}, "l"),
])
def test_missing_parameter_is_a_value_error(check_id, params, missing):
    with pytest.raises(ValueError, match=f"missing parameter {missing!r}"):
        verify_check(check_id, params)


# Digests of the benchmark-size calls (perfbench's VERIFIER_CASES), recorded
# before the verifiers moved onto precomputed relation rows; the sampled
# digests of 5, 6, 8 and c1 were re-recorded with the PINS ones above.
# check id -> (params, sampled trials or None for exhaustive, digests at seeds 1 and 2)
BENCH_PINS = {
    "1": ({"n": 24, "k": 5}, None, ("0ddaaaf91a78eec3",)),
    "2": ({"n": 16, "k": 3, "b": 3}, None, ("d87ffbf58d1be7fb",)),
    "3": (_LINES, 800, ("9edfa0a084ffa86c", "9edfa0a084ffa86c")),
    "4": ({"n1": 10, "n2": 10, "k": 2, "l": 2, "b": 2}, None, ("0585d087bc5ff1c2",)),
    "5": (_WIDE, 200, ("fb2df1416d8d3613", "35a3c8bed1199b05")),
    "6": (_WIDE, 200, ("aa80fbf8ef97f963", "8abd9e9f6b15ef16")),
    "7": (_TWO_SHAPES, 400, ("6225a9fbb0daf1af", "6225a9fbb0daf1af")),
    "8": (_TWO_SHAPES, 300, ("cafb1f38bd20f1b5", "abb3f8b5e55f7d5b")),
    "9": (_UNIT10, 2000, ("10cf8f895693cccc", "10cf8f895693cccc")),
    "c1": (_WIDE, 200, ("cd633c56ffdea1df", "adec8c1cc49e2c5b")),
    "c2": (_WIDE, 600, ("1e45534a6de5f9a8", "1e45534a6de5f9a8")),
    "c3": (_UNIT10, 1000, ("da81c0162104844a", "da81c0162104844a")),
}


@pytest.mark.parametrize("check_id", sorted(BENCH_PINS))
def test_benchmark_size_report_pinned(check_id):
    params, trials, wants = BENCH_PINS[check_id]
    if trials is None:
        reports = [verify_check(check_id, params)]
    else:
        reports = [verify_check(check_id, params, mode=SAMPLED, seed=seed, trials=trials)
                   for seed in (1, 2)]
    assert tuple(_digest(r) for r in reports) == wants


@st.composite
def spaces_and_families(draw):
    """A one- or two-shape space and a random subfamily of it (not necessarily intersecting)."""
    n1, n2, b = draw(st.integers(5, 9)), draw(st.integers(5, 9)), draw(st.integers(1, 2))
    shapes = draw(st.sampled_from([
        [(1, 1)], [(2, 2)], [(1, 2)],
        [(1, 2), (2, 2)],  # equal l: J-pairs across the two classes
        [(2, 1), (2, 2)],  # equal k: I-pairs across the two classes
        [(1, 1), (2, 1)],
    ]))
    rects = verifiers._shape_space(n1, n2, shapes)
    picked = draw(st.lists(st.integers(0, len(rects) - 1), max_size=30, unique=True))
    return rects, b, picked


class TestBlockingRows:
    @given(spaces_and_families())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_blocking_scan(self, case):
        rects, b, picked = case
        blocking = verifiers._BlockingRows(rects, b)
        mask = sum(1 << v for v in picked)
        members = [rects[v] for v in picked]
        # whole union (check 7 and the single-shape checks)
        pairs = find_blocking_pairs(members, b)
        assert blocking.kinds(mask) == {p.kind for p in pairs}
        assert blocking.j_bases(mask) == len({p.base for p in pairs if p.kind == J_BASE})
        # one shape class at a time (check 8)
        for shape, shape_mask in blocking.shape_masks.items():
            in_class = [r for r in members if r.shape == shape]
            assert blocking.kinds(mask & shape_mask) == {p.kind for p in find_blocking_pairs(in_class, b)}
        sizes = blocking.class_sizes(mask)
        assert sizes == {s: sum(r.shape == s for r in members)
                         for s in {r.shape for r in members}}


@st.composite
def shape_spaces(draw):
    """One to three distinct shapes on Z_n1 x Z_n2, n up to 12, full-cycle sides included."""
    n1, n2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = st.tuples(st.integers(1, n1) | st.just(n1), st.integers(1, n2) | st.just(n2))
    shapes = draw(st.lists(shape, min_size=1, max_size=3, unique=True))
    return n1, n2, verifiers._shape_space(n1, n2, shapes)


@given(shape_spaces())
@settings(max_examples=150, deadline=None)
def test_proj_rows_match_pairwise_relation(case):
    # every family the family checks draw is a clique of these rows, so c3
    # relies on them being exactly the proj-intersection relation
    n1, n2, rects = case
    rows = verifiers._proj_rows(n1, n2, rects)
    assert rows == [sum(1 << y for y, s in enumerate(rects) if y != x and proj_intersecting(r, s))
                    for x, r in enumerate(rects)]


def _cliques_by_subset_filter(n, k, dist):
    """Reference: exhaustive check 1 as a pairwise test of every (k+1)- and k-subset."""
    def is_clique(vs):
        return all(a != b and dist(a, b, n) <= k - 1 for a, b in combinations(vs, 2))

    def consecutive(vs):
        return any(all((s + i) % n in vs for i in range(len(vs))) for s in vs)

    instances, bad = 0, []
    for s in range(n):
        run = [(s + i) % n for i in range(k)]
        instances += 1
        if not is_clique(run):
            bad.append({"kind": "consecutive run not a clique", "vertices": sorted(run)})
    for vs in chain(combinations(range(n), k + 1), combinations(range(n), k)):
        instances += 1
        if not is_clique(vs):
            continue
        if len(vs) > k:
            bad.append({"kind": "clique larger than k", "vertices": list(vs)})
        elif not consecutive(vs):
            bad.append({"kind": "non-consecutive k-clique", "vertices": list(vs)})
    return instances, sorted(bad, key=repr)


def _halved_distance(u, v, n):
    return point_distance(u, v, n) // 2


def _unwrapped_distance(u, v, n):
    return abs(u - v)


@pytest.mark.parametrize("dist,kinds", [
    (point_distance, set()),
    (_halved_distance, {"clique larger than k", "non-consecutive k-clique"}),
    (_unwrapped_distance, {"consecutive run not a clique"}),
])
def test_exhaustive_cliques_match_subset_filter(monkeypatch, dist, kinds):
    # a wrong distance makes counterexamples, so their records are compared too
    monkeypatch.setattr(verifiers, "point_distance", dist)
    seen = set()
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            report = verify_check("1", {"n": n, "k": k})
            instances, bad = _cliques_by_subset_filter(n, k, dist)
            assert (report.instances, report.counterexamples) == (instances, bad), (n, k)
            seen |= {c["kind"] for c in bad}
    assert seen == kinds


def _dispersion_by_subsets(n, k, b, dist):
    """Reference: exhaustive check 2 as a pairwise test of every (k+b+1)-subset of intervals."""
    intervals = all_intervals(n, k)
    near = {(p, q): dist(p, q) <= b for p, q in combinations(intervals, 2)}
    instances, bad = 0, []
    for sub in combinations(intervals, k + b + 1):
        instances += 1
        if all(near[pq] for pq in combinations(sub, 2)):
            bad.append({"intervals": sorted((iv.start, iv.length) for iv in sub)})
    return instances, sorted(bad, key=repr)


def _halved_interval_distance(p, q):
    return interval_distance(p, q) // 2


@pytest.mark.parametrize("dist,failing", [(interval_distance, False),
                                          (_halved_interval_distance, True)])
def test_exhaustive_dispersion_matches_subset_loop(monkeypatch, dist, failing):
    # the counted path lists the near-cliques; a weaker distance makes some
    monkeypatch.setattr(verifiers, "interval_distance", dist)
    found = 0
    for n in range(4, 15):
        for k in range(1, n // 2):
            for b in range(1, n // 2 - k + 1):
                report = verify_check("2", {"n": n, "k": k, "b": b})
                want = _dispersion_by_subsets(n, k, b, dist)
                assert (report.instances, report.counterexamples) == want, (n, k, b)
                found += len(want[1])
    assert (found > 0) == failing


def _overlap_by_triples(n1, n2, k, l, b, dist):
    """Reference: exhaustive check 4 as a test of every (base, far I-pair, third) instance.

    None when the check's hypotheses cannot hold: a side longer than its
    cycle, or no I-interval pair at distance >= b+1.
    """
    if n1 < b or n2 < b:
        return None
    i_ivs = all_intervals(n1, k)
    far_pairs = [(a, c) for a, c in combinations(range(len(i_ivs)), 2)
                 if dist(i_ivs[a], i_ivs[c]) >= b + 1]
    if not far_pairs:
        return None
    us = [iv for s in range(1, b + 1) for iv in all_intervals(n1, s)]
    vs = [iv for s in range(1, b + 1) for iv in all_intervals(n2, s)]
    u_meets = [[u.overlaps(i) for i in i_ivs] for u in us]
    instances, bad = 0, []
    for j0 in all_intervals(n2, l):
        v_meets = [v.overlaps(j0) for v in vs]
        for a, c in far_pairs:
            for u, meets_i in zip(us, u_meets):
                for v, meets_j in zip(vs, v_meets):
                    # hypothesis: u x v proj-intersects both I_a x j0 and I_c x j0
                    if not ((meets_i[a] or meets_j) and (meets_i[c] or meets_j)):
                        continue
                    instances += 1
                    if not meets_j:
                        pair = sorted([i.start, i.length, j0.start, j0.length]
                                      for i in (i_ivs[a], i_ivs[c]))
                        bad.append({"base": (j0.start, j0.length), "pair": pair,
                                    "third": (u.start, u.length, v.start, v.length)})
    return instances, sorted(bad, key=repr)


def _shifted_interval_distance(p, q):
    return interval_distance(p, q) + 2


@pytest.mark.parametrize("dist,failing", [(interval_distance, False),
                                          (_shifted_interval_distance, True)])
def test_exhaustive_overlap_matches_triple_loop(monkeypatch, dist, failing):
    # a weaker distance calls near pairs far, and a short third then meets both
    monkeypatch.setattr(verifiers, "interval_distance", dist)
    found = 0
    for b in (1, 2):
        for k, l, n1, n2 in product(range(1, b + 1), range(1, b + 1), range(1, 11), range(1, 11)):
            params = {"n1": n1, "n2": n2, "k": k, "l": l, "b": b}
            want = _overlap_by_triples(n1, n2, k, l, b, dist)
            if want is None:
                with pytest.raises(ValueError):
                    verify_check("4", params)
                continue
            report = verify_check("4", params)
            assert (report.instances, report.counterexamples) == want, params
            found += len(want[1])
    assert (found > 0) == failing


def _random_graph(rng, m, density):
    rows = [0] * m
    for u, v in combinations(range(m), 2):
        if rng.random() < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def _walk_law(rows, size_range):
    """Exact law of the family kept by walking every vertex order and taking each compatible one."""
    m, (lo, hi) = len(rows), size_range
    law, orders = {}, list(permutations(range(m)))
    p = Fraction(1, len(orders) * (hi - lo + 1))
    for target in range(lo, hi + 1):
        for order in orders:
            mask, cand = 0, (1 << m) - 1
            for v in order:
                if mask.bit_count() >= target:
                    break
                if cand >> v & 1:
                    mask |= 1 << v
                    cand &= rows[v]
            law[mask] = law.get(mask, 0) + p
    return law


def _pick_law(rows, size_range):
    """Exact law of the family grown by uniform picks among the remaining candidates."""
    law = {}

    def grow(mask, cand, target, p):
        if not cand or mask.bit_count() >= target:
            law[mask] = law.get(mask, 0) + p
            return
        for v in iter_bits(cand):
            grow(mask | 1 << v, cand & rows[v], target, p / cand.bit_count())

    lo, hi = size_range
    for target in range(lo, hi + 1):
        grow(0, (1 << len(rows)) - 1, target, Fraction(1, hi - lo + 1))
    return law


def _sample_family_by_randrange(rng, rows, size_range):
    """Reference draw: ``rng.randrange`` picks the member among the sorted candidates."""
    target = rng.randint(*size_range)
    mask, cand = 0, (1 << len(rows)) - 1
    while cand and mask.bit_count() < target:
        v = sorted(iter_bits(cand))[rng.randrange(cand.bit_count())]
        mask |= 1 << v
        cand &= rows[v]
    return mask


class TestSampleFamily:
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.7, 1.0])
    def test_pick_law_is_walk_law(self, density):
        # uniform picks among the candidates keep the law of the shuffle-and-walk draw
        graphs = random.Random(int(density * 100))
        for _ in range(10):
            rows = _random_graph(graphs, graphs.randrange(0, 7), density)
            m = len(rows)
            for lo in range(m + 1):
                for hi in range(lo, m + 1):
                    law = _pick_law(rows, (lo, hi))
                    assert law == _walk_law(rows, (lo, hi)), (rows, lo, hi)
                    assert sum(law.values()) == 1

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
    def test_picks_replay_randrange(self, seed):
        # each pick makes rng.randrange's getrandbits calls: same family, same stream
        graphs = random.Random(seed)
        rng, ref = random.Random(seed), random.Random(seed)
        for m in range(0, 201, 5):
            rows = _random_graph(graphs, m, graphs.random())
            size_range = (min(m, graphs.randrange(0, 4)), m)
            for _ in range(3):
                assert (verifiers._sample_family(rng, rows, size_range)
                        == _sample_family_by_randrange(ref, rows, size_range)), m
            assert rng.getstate() == ref.getstate(), m
        full = (1 << 200) - 1  # a complete graph keeps every pick
        rows = [full & ~(1 << v) for v in range(200)]
        assert verifiers._sample_family(rng, rows, (200, 200)) == full

    def test_frequencies_match_exact_law(self):
        rows = _random_graph(random.Random(3), 5, 0.5)
        law = _walk_law(rows, (1, 5))
        rng, draws = random.Random(11), 20_000
        seen = Counter(verifiers._sample_family(rng, rows, (1, 5)) for _ in range(draws))
        assert set(seen) <= set(law)
        for mask, p in law.items():  # within five standard deviations of the expected count
            assert abs(seen[mask] - draws * p) <= 5 * (draws * p * (1 - p)) ** 0.5 + 1, mask


def _cliques_by_combinations(rows, min_size, max_size):
    """Reference: every subset of min_size to max_size vertices, kept when pairwise adjacent."""
    found = [vs for size in range(min_size, max_size + 1)
             for vs in combinations(range(len(rows)), size)
             if all(rows[a] >> b & 1 for a, b in combinations(vs, 2))]
    return sorted(found)


@pytest.mark.parametrize("extra", [None, 0, 1])
def test_cliques_match_pairwise_filter(extra):
    # the same tuples in the same order: lexicographic, each clique before its extensions
    graphs = random.Random(20261019 if extra is None else extra)
    for trial in range(120):
        m, density = graphs.randrange(0, 13), graphs.random()
        rows = _random_graph(graphs, m, density)
        min_size = graphs.randrange(0, 5)
        max_size = None if extra is None else min_size + extra
        want = _cliques_by_combinations(rows, min_size, m if max_size is None else max_size)
        assert list(verifiers._cliques(rows, min_size, max_size)) == want, (rows, min_size)
