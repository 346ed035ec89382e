"""``repro obs watch``: a live ANSI dashboard over a flight-recorder stream.

The flight recorder (:mod:`repro.obs.flightrecorder`) appends every engine
lifecycle event to ``<out>/<name>.flight.jsonl`` with a per-line flush, so
the file is tailable while the run is still going.  This module turns that
stream into a terminal dashboard: per-worker state (which job, how many
done, retries), scheduler queue depth, jobs done/total with a progress bar,
trials/s and ETA from the heartbeat events, and the fault-tolerance tallies
(quarantines, timeouts, pool respawns, checkpoint records).

The pieces are deliberately separable so they test without a terminal:

* :class:`WatchState` — a pure reducer: ``apply(event)`` folds one event
  dict into the view model, ``to_dict()`` is the ``--json`` payload.
* :func:`render_watch` — view model to text; ``color=False`` gives a plain
  snapshot (what the renderer tests pin down).
* :func:`follow` — the tail loop: incremental reads (complete lines only,
  so a torn tail is simply "not yet"), repaint per interval, exit when the
  stream's ``run.end`` arrives or a ``--duration`` budget expires.

Parallel runs deliver worker-buffered events in chunk-sized bursts (the
workers cannot share the parent's sink), so per-worker rows advance at
chunk granularity; scheduler-side events (submissions, gauges, heartbeats)
are live to within one flush.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, TextIO

from repro.obs.flightrecorder import JsonlReader, event_head
from repro.obs.precision import CELL_KINDS, cells_from_event

#: exit code when the watched stream never produced a ``run.end`` in budget
WATCH_EXIT_TIMEOUT = 4

RESET = "\x1b[0m"
BOLD = "\x1b[1m"
DIM = "\x1b[2m"
GREEN = "\x1b[32m"
YELLOW = "\x1b[33m"
RED = "\x1b[31m"
CYAN = "\x1b[36m"
CLEAR = "\x1b[2J\x1b[H"


@dataclass
class WorkerView:
    """What one process (worker or the serial coordinator) is doing."""

    pid: int
    state: str = "idle"  # "idle" | "running" | "exited"
    job: str | None = None
    jobs_done: int = 0
    retries: int = 0
    last_t: float = 0.0
    #: distributed workers only (from ``worker.join``); pool workers are
    #: always local, so their rows stay host-less
    host: str | None = None


@dataclass
class WatchState:
    """Pure event-fold view model of one flight-recorder stream."""

    experiment: str = ""
    backend: str = ""
    expected_workers: int = 0
    jobs_total: int | None = None
    total_trials: int | None = None
    jobs_submitted: int = 0
    jobs_done: int = 0
    jobs_resumed: int = 0
    quarantined: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    jobs_stolen: int = 0
    interrupted: bool = False
    checkpoint_records: int = 0
    checkpoint_compactions: int = 0
    last_checkpoint_job: str | None = None
    queue_depth: int | None = None
    utilization: float | None = None
    trials: int = 0
    trials_per_second: float = 0.0
    started_t: float | None = None
    last_t: float = 0.0
    events: int = 0
    finished: bool = False
    workers: dict[int, WorkerView] = field(default_factory=dict)
    #: latest snapshot per Monte Carlo cell (``stats.grid`` events) — keyed
    #: (n, f), or (topology, n, f) when the grid carries a topology label
    cells: dict[tuple, dict[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------ fold
    def apply(self, event: Mapping[str, Any]) -> None:
        """Fold one flight event into the view (unknown kinds count only)."""
        kind, t, pid = event_head(event)
        self.events += 1
        if self.started_t is None:
            self.started_t = t
        self.last_t = max(self.last_t, t)
        if kind == "plan.begin":
            # a resumed run's stream goes on after the last run.end (and plan.interrupted)
            self.finished = self.interrupted = False
            self.experiment = str(event.get("experiment", self.experiment))
            self.backend = str(event.get("backend", self.backend))
            self.expected_workers = int(event.get("workers", 0))
            self.jobs_total = event.get("jobs", self.jobs_total)
            if event.get("total_trials"):
                self.total_trials = int(event["total_trials"])
        elif kind == "job.submitted":
            self.jobs_submitted += 1
        elif kind == "job.resumed":
            self.jobs_resumed += 1
            self.jobs_done += 1
        elif kind == "job.attempt":
            worker = self._worker(pid, t)
            worker.state = "running"
            worker.job = str(event.get("job", "?"))
            worker.last_t = t
        elif kind == "job.retry":
            self.retries += 1
            self._worker(pid, t).retries += 1
        elif kind == "job.timeout":
            self.timeouts += 1
        elif kind in ("job.completed", "job.quarantined"):
            worker = self._worker(pid, t)
            worker.state = "idle"
            worker.job = None
            worker.jobs_done += 1
            worker.last_t = t
            self.jobs_done += 1
            if kind == "job.quarantined":
                self.quarantined += 1
        elif kind == "worker.spawn":
            self._worker(pid, t)
        elif kind == "worker.join":
            worker = self._worker(pid, t)
            if event.get("host"):
                worker.host = str(event["host"])
        elif kind in ("worker.exit", "worker.leave"):
            self._worker(pid, t).state = "exited"
        elif kind == "job.stolen":
            self.jobs_stolen += 1
        elif kind == "pool.respawn":
            self.pool_respawns = int(event.get("respawns", self.pool_respawns + 1))
        elif kind == "plan.interrupted":
            self.interrupted = True
        elif kind == "scheduler.gauge":
            self.queue_depth = int(event.get("queue_depth", 0))
            self.utilization = float(event.get("utilization", 0.0))
        elif kind == "checkpoint.write":
            self.checkpoint_records = int(event.get("records", self.checkpoint_records + 1))
            self.last_checkpoint_job = event.get("job")
        elif kind == "checkpoint.compact":
            self.checkpoint_compactions = int(
                event.get("compactions", self.checkpoint_compactions + 1)
            )
        elif kind == "heartbeat":
            self.trials = int(event.get("trials", self.trials))
            self.trials_per_second = float(event.get("trials_per_second", 0.0))
            if event.get("total"):
                self.total_trials = int(event["total"])
        elif kind in CELL_KINDS:
            self.cells.update(cells_from_event(event))
        elif kind == "run.end":
            self.finished = True

    def apply_all(self, events: Iterable[Mapping[str, Any]]) -> "WatchState":
        for event in events:
            self.apply(event)
        return self

    def _worker(self, pid: int, t: float) -> WorkerView:
        view = self.workers.get(pid)
        if view is None:
            view = self.workers[pid] = WorkerView(pid=pid, last_t=t)
        return view

    # --------------------------------------------------------------- derived
    @property
    def elapsed_s(self) -> float:
        return 0.0 if self.started_t is None else max(0.0, self.last_t - self.started_t)

    def eta_s(self) -> float | None:
        """Remaining seconds, from jobs throughput (None before it's known)."""
        if self.finished or self.jobs_total is None or self.jobs_done == 0:
            return None
        remaining = self.jobs_total - self.jobs_done
        if remaining <= 0 or self.elapsed_s <= 0:
            return 0.0 if remaining <= 0 else None
        return remaining * self.elapsed_s / self.jobs_done

    def precision_summary(self) -> dict[str, Any] | None:
        """Aggregate of the live per-cell precision, or None before any cell.

        ``worst`` is the cell with the widest current Wilson half-width —
        the estimate holding the sweep's quality back; ``at_target`` counts
        cells whose interval already meets the adaptive-stopping target
        (only populated when the run carries one).
        """
        if not self.cells:
            return None
        worst = max(self.cells.values(), key=lambda c: c["half_width"])
        targets = [c["target"] for c in self.cells.values() if c.get("target") is not None]
        worst_block = {
            "n": worst["n"],
            "f": worst["f"],
            "half_width": worst["half_width"],
            "trials": worst["trials"],
        }
        # legacy Wilson-interval events keep the payload shape exactly
        if worst.get("topology") is not None:
            worst_block["topology"] = worst["topology"]
        if worst.get("method", "wilson") != "wilson":
            worst_block["method"] = worst["method"]
        return {
            "cells": len(self.cells),
            "done": sum(c["done"] for c in self.cells.values()),
            "target": max(targets) if targets else None,
            "at_target": sum(c["met"] for c in self.cells.values()) if targets else None,
            "worst": worst_block,
        }

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable snapshot (the ``--json`` payload)."""
        return {
            "experiment": self.experiment,
            "backend": self.backend,
            "finished": self.finished,
            "events": self.events,
            "elapsed_s": round(self.elapsed_s, 3),
            "jobs": {
                "total": self.jobs_total,
                "submitted": self.jobs_submitted,
                "done": self.jobs_done,
                "resumed": self.jobs_resumed,
                "quarantined": self.quarantined,
            },
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_respawns": self.pool_respawns,
            "jobs_stolen": self.jobs_stolen,
            "interrupted": self.interrupted,
            "checkpoint_records": self.checkpoint_records,
            "queue_depth": self.queue_depth,
            "utilization": self.utilization,
            "trials": self.trials,
            "trials_per_second": self.trials_per_second,
            "total_trials": self.total_trials,
            "eta_s": None if self.eta_s() is None else round(self.eta_s(), 1),
            "precision": self.precision_summary(),
            "workers": {
                str(pid): {
                    "state": w.state,
                    "job": w.job,
                    "jobs_done": w.jobs_done,
                    "retries": w.retries,
                    **({"host": w.host} if w.host else {}),
                }
                for pid, w in sorted(self.workers.items())
            },
        }


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def render_watch(state: WatchState, color: bool = True) -> str:
    """Render one dashboard frame; ``color=False`` is the test-stable form."""

    def paint(text: str, *codes: str) -> str:
        if not color or not codes:
            return text
        return "".join(codes) + text + RESET

    if state.interrupted:
        status = paint("INTERRUPTED", BOLD, RED)
    elif state.finished:
        status = paint("DONE", BOLD, GREEN)
    elif state.events:
        status = paint("RUNNING", BOLD, YELLOW)
    else:
        status = paint("WAITING", DIM)
    backend = state.backend or "?"
    header = (
        f"{paint('flight', BOLD)}: {state.experiment or '?'} "
        f"({backend}, {state.expected_workers or len(state.workers) or '?'} worker(s))  [{status}]"
    )
    lines = [header]

    if state.jobs_total:
        fraction = state.jobs_done / state.jobs_total
        jobs_line = (
            f"jobs {_bar(fraction)} {state.jobs_done}/{state.jobs_total}"
            f" ({fraction:4.0%})"
        )
    else:
        jobs_line = f"jobs {state.jobs_done} done"
    extras = []
    if state.jobs_resumed:
        extras.append(f"{state.jobs_resumed} resumed")
    if state.queue_depth is not None:
        extras.append(f"queue {state.queue_depth}")
    if state.quarantined:
        extras.append(paint(f"quarantined {state.quarantined}", RED))
    if state.retries:
        extras.append(paint(f"retries {state.retries}", YELLOW))
    if state.timeouts:
        extras.append(f"timeouts {state.timeouts}")
    if state.jobs_stolen:
        extras.append(paint(f"stolen {state.jobs_stolen}", YELLOW))
    if state.pool_respawns:
        extras.append(paint(f"pool respawns {state.pool_respawns}", RED))
    if extras:
        jobs_line += "  " + " · ".join(extras)
    lines.append(jobs_line)

    trials_line = None
    if state.trials or state.total_trials:
        progress = (
            f"{state.trials:,}" if not state.total_trials
            else f"{state.trials:,}/{state.total_trials:,}"
        )
        trials_line = f"trials {progress}"
        if state.trials_per_second:
            trials_line += f" ({state.trials_per_second:,.0f}/s)"
    eta = state.eta_s()
    timing = f"elapsed {state.elapsed_s:.1f}s"
    if eta is not None:
        timing += f" · ETA {eta:,.0f}s"
    if state.utilization is not None:
        timing += f" · pool {state.utilization:4.0%} busy"
    lines.append((trials_line + " · " + timing) if trials_line else timing)

    precision = state.precision_summary()
    if precision is not None:
        worst = precision["worst"]
        where = f"n={worst['n']}, f={worst['f']}"
        if worst.get("topology"):
            where = f"{worst['topology']}, {where}"
        if worst.get("method"):
            where += f", {worst['method']}"
        ci_line = (
            f"ci: {precision['cells']} cell(s), worst half-width "
            f"{worst['half_width']:.2g} ({where}, {worst['trials']:,} trials)"
        )
        if precision["target"] is not None:
            at = precision["at_target"]
            badge = f"{at}/{precision['cells']} at target {precision['target']:g}"
            ci_line += "  " + (
                paint(badge, GREEN) if at == precision["cells"] else paint(badge, YELLOW)
            )
        lines.append(ci_line)

    for pid, worker in sorted(state.workers.items()):
        if worker.state == "running":
            doing = paint(f"running {worker.job}", CYAN)
        elif worker.state == "exited":
            doing = paint("exited", DIM)
        else:
            doing = "idle"
        # distributed workers carry a host label; pool workers keep the
        # exact pre-distributed row shape
        who = f"{pid}@{worker.host}" if worker.host else str(pid)
        row = f"  worker {who:<8} {doing:<40} {worker.jobs_done:>3} job(s)"
        if worker.retries:
            row += f", {worker.retries} retried"
        lines.append(row)

    if state.checkpoint_records:
        checkpoint_line = f"checkpoint: {state.checkpoint_records} record(s)"
        if state.last_checkpoint_job:
            checkpoint_line += f" · last {state.last_checkpoint_job}"
        if state.checkpoint_compactions:
            checkpoint_line += f" · {state.checkpoint_compactions} compaction(s)"
        lines.append(checkpoint_line)
    return "\n".join(lines)


def follow(
    path: str | Path,
    interval_s: float = 0.5,
    duration_s: float | None = None,
    once: bool = False,
    color: bool = True,
    as_json: bool = False,
    stream: TextIO | None = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Tail a flight JSONL and repaint the dashboard until the run ends.

    Returns 0 when the stream finished (``run.end`` observed, or ``once``),
    :data:`WATCH_EXIT_TIMEOUT` when a ``duration_s`` budget expired first.
    Only complete lines (newline-terminated) are consumed, so a writer
    mid-flush never produces a half-parsed frame.
    """
    reader = JsonlReader(path)
    out = stream if stream is not None else sys.stdout
    state = WatchState()
    deadline = None if duration_s is None else clock() + duration_s

    def paint_frame() -> None:
        if as_json:
            print(json.dumps(state.to_dict()), file=out, flush=True)
        else:
            prefix = CLEAR if color and not once else ""
            print(prefix + render_watch(state, color=color), file=out, flush=True)

    while True:
        state.apply_all(event for event in reader.read(follow=True) if "kind" in event)
        if once or state.finished:
            paint_frame()
            return 0
        paint_frame()
        if deadline is not None and clock() >= deadline:
            return WATCH_EXIT_TIMEOUT
        sleep(interval_s)


#: the name :mod:`repro.obs` re-exports :func:`follow` under
follow_flight = follow
