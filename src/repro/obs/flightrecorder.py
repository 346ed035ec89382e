"""Engine flight recorder: cross-worker structured lifecycle telemetry.

A ``--jobs N`` run used to be a telemetry blind spot between job submission
and :meth:`MetricsRegistry.merge`: metrics and heartbeats came back merged,
but nothing recorded *when* each job ran, *where* (which worker PID), how
many attempts it took, or what the scheduler's queue looked like while it
waited.  The flight recorder closes that gap with one append-only JSONL
stream per run — ``<out>/<name>.flight.jsonl`` — holding every engine
lifecycle event:

========================  ====================================================
kind                      emitted when
========================  ====================================================
``plan.begin/plan.end``   an executor starts/finishes a :class:`JobPlan`
``job.submitted``         the scheduler hands a job to a backend
``job.resumed``           a checkpoint satisfied the job without running it
``job.attempt``           one attempt starts (``attempt`` counts from 1)
``job.retry``             a failed attempt schedules another (with backoff)
``job.timeout``           an attempt hit its wall-clock budget
``job.completed``         a job finished OK (wall/CPU time, seed fingerprint)
``job.quarantined``       a job exhausted its retry budget
``job.dropped``           an outcome arrived for a job not awaiting one (not in
                          the plan, or settled already); it was ignored
``worker.spawn``          a pool worker process ran its first chunk
``worker.exit``           the parent retired a pool worker at shutdown
``worker.join``           a distributed worker completed its handshake
``worker.leave``          a distributed worker left (goodbye, heartbeat
                          timeout, or dropped connection); counts requeues
``job.stolen``            a requeued job was picked up by a different worker
``pool.respawn``          a broken process pool (or dead spawned distributed
                          worker) was replaced mid-plan
``plan.interrupted``      Ctrl-C/SIGINT cut the plan short (partial results
                          checkpointed; the manifest says ``interrupted``)
``scheduler.gauge``       queue depth / in-flight / utilization sample
``checkpoint.write``      one job record persisted to the checkpoint stream
``checkpoint.compact``    the checkpoint file was rewritten to shed stale lines
``heartbeat``             a :class:`~repro.obs.progress.ProgressReporter` beat
``stats.cell``            a Monte Carlo (N, f) cell's precision snapshot
``run.end``               the recorder closed (carries the event tally)
========================  ====================================================

Every event carries a wall-clock timestamp ``t``, the emitting (or, for
events the parent records *about* a worker, the described) process ``pid``,
a recorder-global sequence number ``seq``, the experiment name, and — for
job events — the job name.

Transport
---------

The recorder is multiprocessing-safe by construction rather than by locks
across processes:

* In the **coordinating process** a :class:`FlightRecorder` opened with a
  path is queue-backed: ``emit`` enqueues onto a thread-safe queue and a
  daemon writer thread drains it to the JSONL sink, flushing after every
  line — so a live ``repro obs watch`` tailing the file sees events within
  one flush, and a hard kill loses at most the queued tail.  A torn final
  line (SIGKILL mid-write) is tolerated by :func:`read_flight_events`.
* **Worker processes** (which cannot share a file handle or a queue with
  the parent under ``spawn``) run a buffer-mode recorder (``path=None``):
  events collect in memory and ride back to the parent with the chunk
  result, exactly like worker metrics registries ride back for
  :meth:`MetricsRegistry.merge`.  The parent ingests them — preserving the
  worker's timestamps and PID, assigning its own global ``seq`` — so the
  sink is one totally ordered stream.  Events buffered in a worker that
  dies mid-chunk are lost with it; the parent's ``pool.respawn`` event
  records that the gap exists.

Deep engine code publishes through the module-level *current recorder*
(:func:`set_flight_recorder` / :func:`flight_recorder`), the same pattern
metrics and heartbeats use: one global lookup plus a ``None`` check when
recording is off, so un-instrumented runs pay nothing.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

FLIGHT_SCHEMA_VERSION = 1

#: canonical suffix of flight-recorder artifacts (``repro obs`` dispatches on it)
FLIGHT_SUFFIX = ".flight.jsonl"

#: every kind the engine emits today (readers must tolerate unknown kinds)
EVENT_KINDS = frozenset(
    {
        "plan.begin",
        "plan.end",
        "job.submitted",
        "job.resumed",
        "job.attempt",
        "job.retry",
        "job.timeout",
        "job.completed",
        "job.quarantined",
        "job.dropped",
        "worker.spawn",
        "worker.exit",
        "worker.join",
        "worker.leave",
        "job.stolen",
        "pool.respawn",
        "plan.interrupted",
        "scheduler.gauge",
        "checkpoint.write",
        "checkpoint.compact",
        "heartbeat",
        "stats.cell",
        "run.end",
    }
)


def _drain_pending(
    pending: "queue.SimpleQueue[str | None]", writer: threading.Thread | None
) -> None:
    """Finalizer: let the writer thread drain what is already queued.

    Daemon threads are killed abruptly at interpreter exit, so a recorder
    that was never :meth:`FlightRecorder.close`\\ d used to silently drop
    its queued tail.  ``weakref.finalize`` runs this before threads die
    (and at garbage collection of an abandoned recorder): it hands the
    writer its stop sentinel and waits for the flush.  Takes the queue and
    thread as arguments — never the recorder — so the finalizer holds no
    reference that would keep the recorder alive.
    """
    if writer is None or not writer.is_alive():
        return
    pending.put(None)
    writer.join(timeout=5.0)


class FlightRecorder:
    """Structured event channel for one run.

    With ``path`` the recorder owns the JSONL sink (queue + writer thread);
    with ``path=None`` it is a worker-side buffer whose :meth:`drain` output
    the parent feeds to :meth:`ingest`.  Either way :meth:`emit` is the one
    write API.  Thread-safe; cheap when idle.
    """

    def __init__(
        self,
        path: str | Path | None,
        experiment: str = "",
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = None if path is None else Path(path)
        self.experiment = experiment
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self.events_written = 0
        self.by_kind: dict[str, int] = {}
        #: pid -> names of jobs that *completed* there (manifest attribution)
        self.worker_jobs: dict[int, list[str]] = {}
        self._buffer: list[dict[str, Any]] = []
        self._queue: "queue.SimpleQueue[str | None]" = queue.SimpleQueue()
        self._writer: threading.Thread | None = None
        self._finalizer: weakref.finalize | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")  # truncate: one stream per run
            self._writer = threading.Thread(
                target=self._drain_to_sink, name="flight-recorder", daemon=True
            )
            self._writer.start()
            # drain the queued tail even if close() never runs (interpreter
            # exit, abandoned recorder): see _drain_pending
            self._finalizer = weakref.finalize(self, _drain_pending, self._queue, self._writer)

    # ----------------------------------------------------------------- writing
    def emit(self, kind: str, job: str | None = None, pid: int | None = None, **fields: Any) -> dict:
        """Record one event; returns the event dict.

        ``pid`` defaults to the calling process (override it for events the
        parent records *about* a worker, e.g. ``worker.exit``).  Extra
        ``fields`` must be JSON-serializable.
        """
        event: dict[str, Any] = {
            "t": round(self._clock(), 6),
            "kind": kind,
            "pid": os.getpid() if pid is None else int(pid),
        }
        if self.experiment:
            event["experiment"] = self.experiment
        if job is not None:
            event["job"] = job
        if fields:
            event.update(fields)
        self._record(event)
        return event

    def ingest(self, events: Iterable[Mapping[str, Any]]) -> int:
        """Fold worker-buffered events into this recorder's stream.

        The events keep their source timestamps and PIDs; this recorder
        assigns fresh global sequence numbers in arrival order (so ``seq``
        is a total order over the sink even when worker clocks interleave).
        Returns the number of events ingested.
        """
        count = 0
        for event in events:
            self._record(dict(event))
            count += 1
        return count

    def _record(self, event: dict[str, Any]) -> None:
        with self._lock:
            if self._closed:
                return
            self._seq += 1
            event["seq"] = self._seq
            self.events_written += 1
            kind = event.get("kind", "?")
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
            if kind == "job.completed" and "job" in event:
                self.worker_jobs.setdefault(int(event.get("pid", 0)), []).append(event["job"])
            if self.path is None:
                self._buffer.append(event)
            else:
                self._queue.put(json.dumps(event, default=str))

    # ------------------------------------------------------------ worker side
    def drain(self) -> list[dict[str, Any]]:
        """Return (and clear) buffered events — the worker→parent payload."""
        with self._lock:
            events, self._buffer = self._buffer, []
        for event in events:
            event.pop("seq", None)  # the parent assigns global sequence numbers
        return events

    # ------------------------------------------------------------- sink thread
    def _drain_to_sink(self) -> None:
        assert self.path is not None
        with self.path.open("a") as sink:
            while True:
                line = self._queue.get()
                if line is None:
                    return
                sink.write(line + "\n")
                sink.flush()

    def flush(self, timeout_s: float = 5.0) -> None:
        """Block until every event emitted so far has reached the sink."""
        if self._writer is None:
            return
        deadline = time.monotonic() + timeout_s
        while not self._queue.empty() and time.monotonic() < deadline:
            time.sleep(0.005)

    # ------------------------------------------------------------------ summary
    def summary(self) -> dict[str, Any]:
        """Manifest-ready description of the stream (path, tallies, workers)."""
        with self._lock:
            return {
                "schema": FLIGHT_SCHEMA_VERSION,
                "path": None if self.path is None else self.path.name,
                "events": self.events_written,
                "by_kind": dict(sorted(self.by_kind.items())),
                "workers": {
                    str(pid): {"jobs": len(names), "names": sorted(names)}
                    for pid, names in sorted(self.worker_jobs.items())
                },
            }

    def close(self) -> dict[str, Any]:
        """Emit ``run.end``, stop the writer, and return :meth:`summary`."""
        if not self._closed:
            self.emit("run.end", events=self.events_written + 1, by_kind=dict(self.by_kind))
            with self._lock:
                self._closed = True
            if self._finalizer is not None:
                self._finalizer.detach()  # close() supersedes the exit drain
                self._finalizer = None
            if self._writer is not None:
                self._queue.put(None)
                self._writer.join(timeout=5.0)
                self._writer = None
        return self.summary()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------- current scope
_current: FlightRecorder | None = None


def set_flight_recorder(recorder: FlightRecorder | None) -> None:
    """Install (or clear, with ``None``) the process-wide recorder."""
    global _current
    _current = recorder


def flight_recorder() -> FlightRecorder | None:
    """The currently installed recorder, or ``None`` (the hot-path check)."""
    return _current


# -------------------------------------------------------------------- reading
def read_flight_events(path: str | Path) -> list[dict[str, Any]]:
    """Read a flight JSONL back, tolerating a torn tail.

    A process killed mid-write leaves at most one truncated final line;
    any line that does not parse as a JSON object is skipped, so readers
    (``repro obs watch``, the Perfetto exporter, manifests) always see a
    valid prefix of the stream.
    """
    events: list[dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict) and "kind" in event:
            events.append(event)
    return events


def flight_summary(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Offline :meth:`FlightRecorder.summary` equivalent over raw events."""
    by_kind: dict[str, int] = {}
    workers: dict[int, list[str]] = {}
    count = 0
    for event in events:
        count += 1
        kind = str(event.get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind == "job.completed" and "job" in event:
            workers.setdefault(int(event.get("pid", 0)), []).append(str(event["job"]))
    return {
        "schema": FLIGHT_SCHEMA_VERSION,
        "events": count,
        "by_kind": dict(sorted(by_kind.items())),
        "workers": {
            str(pid): {"jobs": len(names), "names": sorted(names)}
            for pid, names in sorted(workers.items())
        },
    }
