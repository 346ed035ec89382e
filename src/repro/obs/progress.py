"""Live progress heartbeats for long sweeps.

Long Monte-Carlo sweeps and full experiment regenerations run for minutes
with no output between result tables.  A :class:`ProgressReporter` emits a
heartbeat line to stderr on a wall-clock interval — trials/sec, ETA when a
total is known, and running incident counts — and its :meth:`summary` dict
is folded into the run manifest so the throughput of every run is on record.

Deep hot loops publish through the module-level *current heartbeat* the same
way metrics use the current registry: drivers install a reporter with
:func:`set_heartbeat`, the Monte Carlo batch loop calls ``heartbeat()`` and
pays one global lookup plus a ``None`` check when no reporter is installed.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

from repro.obs.flightrecorder import flight_recorder


class ProgressReporter:
    """Interval-throttled trials/sec + ETA + incident-count reporter."""

    def __init__(
        self,
        label: str,
        total: int | None = None,
        interval_s: float = 5.0,
        stream: TextIO | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.label = label
        self.total = total
        self.interval_s = interval_s
        self._stream = stream
        self._clock = clock
        self._started = clock()
        self._last_emit = self._started
        self.trials = 0
        self.counts: dict[str, int] = {}
        self.heartbeats = 0
        #: total jobs in the active plan, installed by the engine executors
        #: so heartbeat lines (and `repro obs watch`) can show jobs done/total
        self.jobs_total: int | None = None

    # ------------------------------------------------------------------ input
    def add(self, n: int = 1, **counts: int) -> None:
        """Record ``n`` more trials (and named incident counts); maybe emit."""
        self.trials += n
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        now = self._clock()
        if now - self._last_emit >= self.interval_s:
            self.emit(now=now)

    def absorb(self, summary: dict) -> None:
        """Fold a worker reporter's :meth:`summary` into this one.

        The parallel executor runs a silent collector reporter in every
        worker process; the parent absorbs each returned summary so its own
        heartbeat line (and the manifest summary) reflects fleet-wide trials
        and incident counts rather than just the coordinating process.
        """
        self.add(int(summary.get("trials", 0)), **summary.get("counts", {}))
        self.heartbeats += int(summary.get("heartbeats", 0))

    # ----------------------------------------------------------------- output
    def _format(self, elapsed: float) -> str:
        rate = self.trials / elapsed if elapsed > 0 else 0.0
        progress = f"{self.trials}" if self.total is None else f"{self.trials}/{self.total}"
        parts = [f"[{self.label}] {progress} trials", f"{rate:,.0f} trials/s"]
        if self.jobs_total is not None:
            parts.append(f"jobs {self.counts.get('jobs', 0)}/{self.jobs_total}")
        if self.total is not None and rate > 0 and self.trials < self.total:
            parts.append(f"ETA {(self.total - self.trials) / rate:,.0f}s")
        if self.counts:
            inner = " ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
            parts.append(f"incidents: {inner}")
        return ", ".join(parts)

    def emit(self, now: float | None = None) -> str:
        """Write one heartbeat line to the stream; returns the line.

        Each emitted beat is also recorded on the current flight-recorder
        channel (when one is installed), so ``repro obs watch`` can show a
        live trials/s + ETA without re-deriving it from job events.
        """
        now = self._clock() if now is None else now
        self._last_emit = now
        self.heartbeats += 1
        elapsed = now - self._started
        line = self._format(elapsed)
        stream = self._stream if self._stream is not None else sys.stderr
        print(line, file=stream, flush=True)
        recorder = flight_recorder()
        if recorder is not None:
            recorder.emit(
                "heartbeat",
                label=self.label,
                trials=self.trials,
                total=self.total,
                trials_per_second=round(self.trials / elapsed, 3) if elapsed > 0 else 0.0,
                jobs=self.counts.get("jobs", 0),
                jobs_total=self.jobs_total,
            )
        return line

    def summary(self) -> dict:
        """Machine-readable run summary (merged into run manifests)."""
        elapsed = self._clock() - self._started
        summary = {
            "label": self.label,
            "trials": self.trials,
            "wall_seconds": elapsed,
            "trials_per_second": self.trials / elapsed if elapsed > 0 else 0.0,
            "heartbeats": self.heartbeats,
            "counts": dict(self.counts),
        }
        if self.jobs_total is not None:
            summary["jobs_total"] = self.jobs_total
        return summary


# ------------------------------------------------------------ current reporter
_current: ProgressReporter | None = None


def set_heartbeat(reporter: ProgressReporter | None) -> None:
    """Install (or clear, with ``None``) the process-wide heartbeat."""
    global _current
    _current = reporter


def heartbeat() -> ProgressReporter | None:
    """The currently installed reporter, or ``None`` (the hot-loop check)."""
    return _current
