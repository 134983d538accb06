"""Write reference.json: the expected answer of every benchmark operation.

    python3 perfbench/record_reference.py

Run it only when the expected answers themselves change.  The benchmark
compares every run against this file and also against independent sources
(closed-form bounds, witness re-validation), so a wrong recording shows.
"""

from __future__ import annotations

import json
import os
import tempfile

from run import OUT, REFERENCE, import_ekrlab

import_ekrlab()

from ekrlab import Constraint, ParameterGrid, Universe, hunt, max_intersecting  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import CONJECTURES, WIDE_INSTANCES, WORKLOADS, cell_key  # noqa: E402

# Any seed gives the same answers; it only orders instances and draws samples.
SEED = 0


def record() -> dict:
    ref = {"hunt": {}, "wide-any": {}, "certify": {"doublecount": {"exact": True}}}
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for c in CONJECTURES:
            report = hunt(ParameterGrid.default(), c, os.path.join(tmp, f"c{c}.jsonl"))
            for r in report.cells:
                ref["hunt"][cell_key(c, r.cell)] = {
                    "found_max": r.found_max, "status": r.status,
                    "proven_optimal": r.proven_optimal}
    for iid, n1, n2, ps in WIDE_INSTANCES:
        r = max_intersecting(Universe(n1, n2), ps, Constraint.ANY)
        ref["wide-any"][iid] = {"max_size": r.max_size, "proven_optimal": r.proven_optimal}
    certify = WORKLOADS["certify"]
    for (kind, oid), r in certify.solve(certify.inputs(SEED), NullTracer(), "").items():
        if kind == "cross":
            ref["certify"]["cross"] = {"max_total": r.max_total, "proven_optimal": r.proven_optimal}
        elif kind == "verify":
            ref["certify"]["verify:" + oid] = {"passed": r.passed, "instances": r.instances}
        elif not r.exact:
            raise SystemExit(f"double count {oid} is not exact")
    return ref


if __name__ == "__main__":
    reference = record()
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
