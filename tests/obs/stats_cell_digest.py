"""SHA-256 of the ``stats.cell`` events of six serial quick runs.

``data/stats_cell_quick.sha256`` holds, one line per run, the digest this
module's :func:`stats_cell_digest` returned for that run's flight stream at
the commit *before* the sweep loop built its cells a whole f-grid at a time,
re-recorded when the stratified cells took the continuity-corrected
half-width (only ``figure2-ci-stratified-cv`` moved) and when the sweep's
keys became 32-bit halves of raw PCG64 words.
It is the contract "every ``stats.cell`` event is what it was, in the order
it was" — never re-record it to make a change pass.

A run's digest hashes every ``stats.cell`` event in emission order, each as
sorted-key JSON with every field except ``t`` and ``pid`` (wall clock and
process) and ``seq`` (the recorder's sequence number counts every event, and
heartbeats interleave by wall clock).  The runs are the serial ``--quick``
profiles of figure2, figure3, crossovers and topologysweep, plus figure2
with ``--target-ci 0.01`` under the default ``crn`` method and under
``stratified-cv``.

``PYTHONPATH=src python tests/obs/stats_cell_digest.py LABEL=FLIGHT.jsonl ...``
prints the pin's lines for the given streams, so a Makefile can ``diff``
them against the pin.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.obs.flightrecorder import read_flight_events

PIN = Path(__file__).parent / "data" / "stats_cell_quick.sha256"

#: label -> (experiment, extra ``repro run --quick`` arguments) of each pinned run
RUNS = {
    "figure2": ("figure2", ()),
    "figure3": ("figure3", ()),
    "crossovers": ("crossovers", ()),
    "topologysweep": ("topologysweep", ()),
    "figure2-ci-crn": ("figure2", ("--target-ci", "0.01")),
    "figure2-ci-stratified-cv": (
        "figure2", ("--target-ci", "0.01", "--mc-method", "stratified-cv"),
    ),
}
DROPPED = frozenset({"t", "pid", "seq"})


def stats_cell_digest(path: str | Path) -> str:
    """Hex SHA-256 of one flight stream's ``stats.cell`` events."""
    digest = hashlib.sha256()
    for event in read_flight_events(path):
        if event["kind"] == "stats.cell":
            fields = {k: v for k, v in event.items() if k not in DROPPED}
            digest.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def pinned() -> dict[str, str]:
    """Label -> pinned digest."""
    return {
        label: digest
        for digest, label in (line.split() for line in PIN.read_text().splitlines())
    }


if __name__ == "__main__":
    for argument in sys.argv[1:]:
        label, _, path = argument.partition("=")
        print(f"{stats_cell_digest(path)}  {label}")
