"""SHA-256 of the per-cell precision snapshots of six serial quick runs.

``data/stats_cell_quick.sha256`` holds, one line per run, the digest this
module's :func:`stats_cell_digest` returned for that run's flight stream at
the commit *before* the sweep loop built its cells a whole f-grid at a time,
re-recorded when the stratified cells took the continuity-corrected
half-width (only ``figure2-ci-stratified-cv`` moved) and when the sweep's
keys became 32-bit halves of raw PCG64 words.
It is the contract "every cell snapshot is what it was, in the order it
was" — never re-record it to make a change pass.

The pin was recorded from flight schema 1, which carried one ``stats.cell``
event per cell.  A run's digest hashes every cell expanded from its
``stats.grid`` events (:func:`repro.obs.precision.grid_payloads`) in
emission order, each rebuilt as the schema-1 event it replaces — ``kind``
``stats.cell``, the ``experiment`` and the cell's payload — as sorted-key
JSON.  Schema 1's ``t`` and ``pid`` (wall clock and process) and ``seq``
(the recorder's sequence number counts every event, and heartbeats
interleave by wall clock) were never hashed.  The runs are the serial ``--quick``
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
from repro.obs.precision import STATS_GRID_KIND, grid_payloads

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


def stats_cell_digest(path: str | Path) -> str:
    """Hex SHA-256 of one flight stream's cells, each as its schema-1 event."""
    digest = hashlib.sha256()
    for event in read_flight_events(path):
        if event["kind"] == STATS_GRID_KIND:
            head = {"kind": "stats.cell"}
            if "experiment" in event:
                head["experiment"] = event["experiment"]
            for cell in grid_payloads(event):
                digest.update(json.dumps({**head, **cell}, sort_keys=True).encode() + b"\n")
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
