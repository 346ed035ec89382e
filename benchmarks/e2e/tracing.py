"""Spans recorded from the benchmark's own files, and what is read off them.

A span is ``{"id", "name", "start", "end", "parent", "workload", "pid"}``
with wall-clock seconds (``time.time``, the clock the flight recorder
stamps its events with, so spans derived from a run's flight stream sit on
the same axis as spans timed here).  Spans are kept in memory; the harness
writes them as one Chrome trace-event JSON when the benchmark ends.

A layer's *self time* is its span minus the part of that interval its
child spans cover — children may overlap (two pool workers), so coverage
is the length of the union, not the sum.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

Span = dict[str, Any]


class SpanRecorder:
    """In-memory span list with a current-parent stack."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            pid: int | None = None) -> int:
        """Record a finished span (e.g. one rebuilt from a flight event)."""
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "workload": self.workload,
            "pid": os.getpid() if pid is None else pid,
        })
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the enclosed block as a child of the innermost open span."""
        span_id = self.add(name, time.time(), float("nan"),
                           parent=self._stack[-1] if self._stack else None)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.time()


def merge_spans(*groups: list[Span]) -> list[Span]:
    """Concatenate recorders' span lists, renumbering ids so they stay unique.

    Every recorder numbers its spans 0..n-1 in list order, so shifting a
    group's ids and parents by the count of spans before it keeps the tree.
    """
    merged: list[Span] = []
    for group in groups:
        offset = len(merged)
        for span in group:
            parent = span["parent"]
            merged.append({**span, "id": span["id"] + offset,
                           "parent": None if parent is None else parent + offset})
    return merged


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span["start"]), min(end, span["end"]))
            for start, end in children.get(span["id"], [])
            if min(end, span["end"]) > max(start, span["start"])
        ]
        result[span["id"]] = (span["end"] - span["start"]) - union_length(clipped)
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Self time summed over spans sharing a name (one row per layer call)."""
    totals: dict[str, float] = {}
    for span_id, seconds in self_times(spans).items():
        name = spans[span_id]["name"]
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def chrome_trace(spans: list[Span]) -> dict[str, Any]:
    """Chrome trace-event form: one complete ("X") event per span.

    ``pid`` is the workload (one process group per workload in the viewer),
    ``tid`` the operating-system process the span ran in, so pool and
    distributed workers get their own rows under their workload.
    """
    workloads = sorted({span["workload"] for span in spans})
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": i, "args": {"name": name}}
        for i, name in enumerate(workloads)
    ]
    for span in spans:
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "pid": workloads.index(span["workload"]),
            "tid": span["pid"],
            "ts": span["start"] * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"], "workload": span["workload"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: list[Span], path: Path) -> Path:
    """Write the spans as one Chrome trace-event JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)) + "\n")
    return path
