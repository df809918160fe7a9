"""Spans recorded from outside the program, around calls into each layer.

A span is ``{id, name, op, parent, start, end, source}``: ``name`` is
``layer.stage`` (layer = module name under ``repro``; the root of each op
is ``op.<class>``), ``op`` is shared by all spans of one request, and
``source`` says who measured it — ``"harness"`` for a clock read around a
public call, ``"program"`` for a child laid out from the ``timings`` that
call returned (where one public call covers several layers).  Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(
        self, name: str, op: int, start: float, end: float,
        parent: Optional[int] = None, source: str = "harness",
    ) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "op": op, "parent": parent,
             "start": start, "end": end, "source": source}
        )
        return span_id

    @contextmanager
    def span(self, name: str, op: int, parent: Optional[int] = None) -> Iterator[int]:
        """Time the body; the span is recorded even when the body raises."""
        span_id = self.add(name, op, time.perf_counter(), 0.0, parent)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = time.perf_counter()

    def add_program_children(
        self, parent: int, stages: Sequence[tuple[str, str]], timings: Mapping[str, float],
    ) -> None:
        """Lay the stages a public call reported back to back, ending at the
        parent's end (what precedes them inside the parent is its self time)."""
        span = self.spans[parent]
        present = [(name, timings[key]) for key, name in stages if key in timings]
        cursor = max(span["start"], span["end"] - sum(seconds for _, seconds in present))
        for name, seconds in present:
            end = min(cursor + seconds, span["end"])
            self.add(name, span["op"], cursor, end, parent, source="program")
            cursor = end

    def write(self, path: Path, header: Mapping[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}))


def self_times(spans: Sequence[dict]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [max(0.0, span["end"] - span["start"] - covered[span["id"]]) for span in spans]


def layer_shares(spans: Sequence[dict]) -> dict[str, float]:
    """Share of all op self time spent in each layer (``op`` = the harness's
    own time between the calls of one op)."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"].split(".", 1)[0]] += own
    whole = sum(totals.values())
    return {layer: seconds / whole for layer, seconds in totals.items()} if whole else {}


def tree_problems(spans: Sequence[dict]) -> list[str]:
    """Why the spans are not a forest with one root per op (empty = well-formed)."""
    problems: list[str] = []
    roots: dict[int, int] = defaultdict(int)
    slack = 1e-6  # program children are laid out in float arithmetic
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ends before it starts")
        if span["parent"] is None:
            roots[span["op"]] += 1
            continue
        parent = spans[span["parent"]]
        if parent["op"] != span["op"]:
            problems.append(f"span {span['id']} and its parent belong to different ops")
        if span["start"] < parent["start"] - slack or span["end"] > parent["end"] + slack:
            problems.append(f"span {span['id']} ({span['name']}) leaves its parent")
    for op in {span["op"] for span in spans}:
        if roots[op] != 1:
            problems.append(f"op {op} has {roots[op]} roots")
    return problems
