"""Self-tests for the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from ekrlab import (  # noqa: E402
    Constraint,
    ParameterGrid,
    Universe,
    best_construction,
    max_cross_intersecting,
    max_intersecting,
    rectangle_pair_count,
)
from spans import NullTracer, Tracer, self_time_by_name, self_times  # noqa: E402
from workloads import CROSS_NK, DC_UNIVERSE, ONE_NODE, WORKLOADS, cell_key  # noqa: E402


def test_one_node_probe_does_no_branching():
    r = max_intersecting(Universe(8, 8), [(2, 2)], Constraint.ANY, ONE_NODE)
    assert (r.nodes, r.proven_optimal) == (2, False)
    u = Universe(5, 5)
    seed = best_construction(1, u, (2, 2))
    r = max_intersecting(u, [(2, 2)], Constraint.NONTRIVIAL, ONE_NODE, seed=seed, symmetry=True)
    assert (r.nodes, r.proven_optimal) == (2, False)
    c = max_cross_intersecting(*CROSS_NK, ONE_NODE)
    assert (c.nodes, c.proven_optimal) == (2, False)


def _small_hunt_nodes(seed: int, tmp: str) -> list[dict]:
    """Node counts per cell over two passes of the hunt workload, on its small cells."""
    wl = WORKLOADS["hunt"]
    grids = {c: ParameterGrid(tuple(cell for cell in g.cells if cell.n1 + cell.n2 <= 8))
             for c, g in wl.inputs(seed).items()}
    passes = []
    for _ in range(2):
        reports = wl.solve(grids, NullTracer(), tmp)
        passes.append({cell_key(c, r.cell): r.nodes for c, rep in reports.items() for r in rep.cells})
    return passes


def test_node_counts_repeat_across_passes_and_seeds(tmp_path):
    a1, a2 = _small_hunt_nodes(1, str(tmp_path))
    b1, b2 = _small_hunt_nodes(2, str(tmp_path))
    assert a1 == a2 == b1 == b2
    assert sum(a1.values()) > len(a1)


def test_seed_changes_order_not_instances():
    hunt = WORKLOADS["hunt"]
    g1, g2 = hunt.inputs(1), hunt.inputs(2)
    assert g1[1].cells != g2[1].cells
    assert sorted(g1[1].cells) == sorted(g2[1].cells) == sorted(ParameterGrid.default().cells)
    wide = WORKLOADS["wide-any"]
    assert sorted(i for i, _, _ in wide.inputs(1)) == sorted(i for i, _, _ in wide.inputs(2))
    certify = WORKLOADS["certify"]
    ops1, ops2 = certify.inputs(1), certify.inputs(2)
    assert sorted(repr((k, o)) for k, o, _ in ops1) == sorted(repr((k, o)) for k, o, _ in ops2)
    # double-count families change with the seed, their incidence count does not
    u = Universe(*DC_UNIVERSE)

    def incidences(ops):
        return sum(rectangle_pair_count(u, m) for k, _, fam in ops if k == "doublecount"
                   for m in fam.sets)

    fams1 = {o: fam.sets for k, o, fam in ops1 if k == "doublecount"}
    fams2 = {o: fam.sets for k, o, fam in ops2 if k == "doublecount"}
    assert fams1 != fams2
    assert incidences(ops1) == incidences(ops2)
    assert [repr(x) for x in certify.inputs(1)] == [repr(x) for x in ops1]


def _span(sid, name, parent, start, end):
    return {"id": sid, "name": name, "instance": None, "parent": parent, "start": start, "end": end}


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),   # overlaps a: the root loses [1, 6] once
        _span(3, "leaf", 1, 2.0, 3.0),
        _span(4, "a", 0, 9.0, 11.0),  # runs past its parent: clipped at 10
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(2.0)
    assert self_time_by_name(spans) == pytest.approx({"root": 4.0, "a": 4.0, "b": 3.0, "leaf": 1.0})


def test_tracer_records_parent_and_instance():
    tr = Tracer()
    with tr.span("outer", "x"):
        with tr.span("inner", 7):
            pass
    outer, inner = tr.spans
    assert (outer["parent"], inner["parent"], inner["instance"]) == (None, 0, 7)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
