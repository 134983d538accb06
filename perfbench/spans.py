"""In-memory spans for the traced benchmark run.

A span records a name, an instance id, start and end times and the span
that was open when it started.  Spans stay in memory until the run ends;
``write`` dumps them as JSON.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, instance=None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "instance": instance,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "self_s": self_time_by_name(self.spans)}, fh)


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def span(self, name: str, instance=None):
        return nullcontext()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals (clipped to it).

    Spans still open are left out.
    """
    spans = [sp for sp in spans if sp["end"] is not None]
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        s, e = sp["start"], sp["end"]
        kids = [(max(a, s), min(b, e)) for a, b in children.get(sp["id"], ()) if b > s and a < e]
        out[sp["id"]] = (e - s) - _covered(kids)
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    names = {sp["id"]: sp["name"] for sp in spans}
    for sp_id, t in self_times(spans).items():
        name = names[sp_id]
        totals[name] = totals.get(name, 0.0) + t
    return totals
