"""ekrlab benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s`` (median
solve-pass time), ``setup_s`` (median time before the first branch-and-bound
node), and ``peak_rss_mb``.  With ``--trace 1`` it reports the per-layer
metrics instead (see README.md).  Every answer is checked against
``reference.json`` and independent sources; ``failed`` counts the operations
that disagree.  Runs from the root of a source checkout, importing ekrlab
from ``src/``; the package is not installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPS = 3

IMPORT_CODE = ("import time; t = time.perf_counter(); import ekrlab; "
               "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import ekrlab in a fresh interpreter, from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import ekrlab from {SRC}: {proc.stderr.strip()}")
    return float(proc.stdout)


def import_ekrlab():
    sys.path.insert(0, SRC)
    import ekrlab
    if not os.path.abspath(ekrlab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"ekrlab imported from {ekrlab.__file__}, not {SRC}")
    return ekrlab


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_rev": git_rev(),
        "src_lines": src_lines,
    }


def git_rev() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def timed_pass(wl, inputs, tracer, tmp: str) -> tuple[float, object]:
    start = time.perf_counter()
    results = wl.solve(inputs, tracer, tmp)
    return time.perf_counter() - start, results


def end_to_end(wl, seed: int, seconds: float, ref: dict, tmp: str) -> tuple[dict, dict, int, list]:
    setups = []
    for _ in range(SETUP_REPS):
        imp = import_seconds()
        start = time.perf_counter()
        inputs = wl.inputs(seed)
        wl.probe(inputs, tmp)
        setups.append(imp + time.perf_counter() - start)

    # Passes repeat while the next one still fits in ``seconds`` (at least two).
    walls, attempted, failed = [], 0, []
    begin = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - begin + walls[-1] <= seconds:
        wall, results = timed_pass(wl, inputs, NullTracer(), tmp)
        walls.append(wall)
        n, bad = wl.check(inputs, results, ref, tmp)
        attempted += n
        failed += bad
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"pass_s": walls, "setup_s_reps": setups}
    return metrics, detail, attempted, failed


def traced(wl, seed: int, ref: dict, tmp: str, trace_path: str) -> tuple[dict, dict, int, list]:
    from workloads import layer_probes

    inputs = wl.inputs(seed)
    plain, results = timed_pass(wl, inputs, NullTracer(), tmp)
    attempted, failed = wl.check(inputs, results, ref, tmp)
    tracer = Tracer()
    with tracer.span("pass", wl.name):
        wall, results = timed_pass(wl, inputs, tracer, tmp)
    n, bad = wl.check(inputs, results, ref, tmp)
    attempted += n
    failed += bad

    layers, n, bad = layer_probes(tracer, seed, ref, tmp)
    attempted += n
    failed += bad
    layers["trace.overhead_s"] = wall - plain
    tracer.write(trace_path)
    return layers, {"untraced_wall_s": plain, "traced_wall_s": wall}, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["hunt", "wide-any", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    import_ekrlab()
    from workloads import WORKLOADS

    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            metrics, detail, attempted, failed = traced(wl, args.seed, ref, tmp, stem + "-spans.json")
        else:
            metrics, detail, attempted, failed = end_to_end(wl, args.seed, args.seconds, ref, tmp)

    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares other metrics")
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment()
    for line in failed:
        print("FAILED", line, file=sys.stderr)
    for name, m in report.items():
        print(f"{name:34s} {m['value']:16.6f} {m['unit']}", file=sys.stderr)
    print(f"{'failure_rate':34s} {len(failed) / attempted:16.6f} ({len(failed)}/{attempted})",
          file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": report,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "detail": detail, "failures": failed, "result": result}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
