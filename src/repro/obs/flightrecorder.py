"""Engine flight recorder: cross-worker structured lifecycle telemetry.

A ``--jobs N`` run used to be a telemetry blind spot between job submission
and :meth:`MetricsRegistry.merge`: metrics and heartbeats came back merged,
but nothing recorded *when* each job ran, *where* (which worker PID), how
many attempts it took, or what the scheduler's queue looked like while it
waited.  The flight recorder closes that gap with one append-only JSONL
stream per run — ``<out>/<name>.flight.jsonl`` — holding every engine
lifecycle event (the table is :func:`kinds_table`, rendered from :data:`KINDS`
when the module is imported):

@KINDS@

Every event carries a wall-clock timestamp ``t``, the emitting (or, for
events the parent records *about* a worker, the described) process ``pid``,
a recorder-global sequence number ``seq``, the experiment name, and — for
job events — the job name.

Transport
---------

The recorder is multiprocessing-safe by construction rather than by locks
across processes:

* In the **coordinating process** a :class:`FlightRecorder` opened with a
  path owns the JSONL sink: it opens the file once (truncating it, or with
  ``append=True`` — a resumed run — keeping it and continuing its ``seq``) and,
  under the recorder's lock, writes each event as it is sequenced, with
  one ``flush`` per :meth:`~FlightRecorder.emit` and one per
  :meth:`~FlightRecorder.ingest` batch.  Every event is therefore in the
  file when the call returns — a live ``repro obs watch`` tailing it sees
  it at once, and a run that exits without ``close`` loses nothing — and a
  sink ``OSError`` reaches the caller.  A torn final line (SIGKILL
  mid-write) is tolerated by :func:`read_flight_events`.
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
import threading
import time
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Mapping, NamedTuple

FLIGHT_SCHEMA_VERSION = 3

#: canonical suffix of flight-recorder artifacts (``repro obs`` dispatches on it)
FLIGHT_SUFFIX = ".flight.jsonl"

#: fields any event may carry, whatever its kind (``job`` on job events only)
COMMON_FIELDS = ("t", "kind", "pid", "seq", "experiment", "job")


class Kind(NamedTuple):
    """One row of the flight schema."""

    #: the "emitted when" line of the documentation tables
    when: str
    #: the kind's own fields, beyond :data:`COMMON_FIELDS`
    fields: tuple[str, ...] = ()
    #: how the Perfetto export draws it: ``"bar"`` (a job bar on the worker's
    #: track), ``"worker"`` / ``"scheduler"`` (an instant marker on that track),
    #: ``"counter"`` (scheduler counter tracks), or ``None`` (not drawn)
    draw: str | None = None


#: the flight schema, declared once: every kind the engine emits, in
#: documentation order.  ``EVENT_KINDS``, the table in the module docstring,
#: the one in docs/observability.md and the Perfetto export's instant sets are
#: all derived from it; tests hold real streams to it (``emit`` checks nothing).
KINDS: dict[str, Kind] = {
    "plan.begin": Kind("an executor starts a `JobPlan`",
                       ("backend", "workers", "jobs", "resumed", "total_trials", "topology"),
                       "scheduler"),
    "plan.end": Kind("an executor finishes a `JobPlan`",
                     ("jobs", "completed", "quarantined", "pool_respawns", "stolen", "workers"),
                     "scheduler"),
    "job.submitted": Kind("the scheduler hands a job to a backend", ("worker",), "scheduler"),
    "job.resumed": Kind("a checkpoint satisfied the job without running it", (), "scheduler"),
    "job.attempt": Kind("one attempt starts (`attempt` counts from 1)", ("attempt",)),
    "job.retry": Kind("a failed attempt schedules another, after a backoff",
                      ("attempt", "backoff_s"), "worker"),
    "job.timeout": Kind("an attempt hit its wall-clock budget", ("attempt", "timeout_s"), "worker"),
    "job.completed": Kind("a job finished OK",
                          ("ok", "attempts", "wall_s", "cpu_s", "seed_fingerprint"), "bar"),
    "job.quarantined": Kind("a job exhausted its retry budget",
                            ("attempts", "timed_out", "error", "wall_s", "cpu_s"), "bar"),
    "job.dropped": Kind("an outcome arrived for a job not awaiting one (`unknown-job` / "
                        "`already-settled`); it was ignored", ("reason",)),
    "worker.spawn": Kind("a pool worker process ran its first chunk", ("chunk_jobs",), "worker"),
    "worker.exit": Kind("the parent retired a pool worker at shutdown", (), "worker"),
    "worker.join": Kind("a distributed worker completed its handshake",
                        ("worker", "host", "workers")),
    "worker.leave": Kind("a distributed worker left (goodbye, heartbeat timeout, or dropped "
                         "connection)",
                         ("worker", "host", "reason", "jobs", "requeued", "workers")),
    "job.stolen": Kind("a dead worker's requeued job was handed to a different worker",
                       ("worker", "from_worker")),
    "pool.respawn": Kind("a broken process pool (or dead spawned distributed worker) was "
                         "replaced mid-plan", ("respawns", "requeued", "backend"), "scheduler"),
    "plan.interrupted": Kind("Ctrl-C/SIGINT cut the plan short (partial results checkpointed)",
                             ("jobs", "completed", "backend")),
    "scheduler.gauge": Kind("queue depth / in-flight / utilization sample",
                            ("queue_depth", "outstanding_chunks", "utilization", "workers"),
                            "counter"),
    "checkpoint.write": Kind("one job record persisted to the checkpoint stream",
                             ("records", "bytes"), "scheduler"),
    "checkpoint.compact": Kind("the checkpoint file was rewritten to shed stale lines",
                               ("records", "reclaimed", "compactions", "bytes")),
    "heartbeat": Kind("a `ProgressReporter` beat",
                      ("label", "trials", "total", "trials_per_second", "jobs", "jobs_total"),
                      "scheduler"),
    "stats.grid": Kind("a Monte Carlo sweep finished a sampling round: labels once, then one "
                       "column entry per cell of every open group (`target`, `met` when "
                       "adaptive)",
                       ("trials", "confidence", "target", "topology", "method", "n", "f",
                        "successes", "point", "half_width", "done", "met", "std_error"),
                       "counter"),
    "run.end": Kind("the recorder closed (carries the event tally)", ("events", "by_kind")),
}

#: every kind the engine emits today (readers must tolerate unknown kinds)
EVENT_KINDS = frozenset(KINDS)


def kinds_table() -> str:
    """:data:`KINDS` as the Markdown table the docs and the docstring above embed."""
    rows = ["| kind | emitted when | fields |", "| --- | --- | --- |"]
    for name, kind in KINDS.items():
        fields = ", ".join(f"`{field}`" for field in kind.fields)
        rows.append(f"| `{name}` | {kind.when} | {fields} |")
    return "\n".join(rows)


if __doc__:  # absent under -OO
    __doc__ = __doc__.replace("@KINDS@", kinds_table())


#: the sink's JSON encoder, built once (``json.dumps(..., default=str)`` builds one per call)
_encode = json.JSONEncoder(default=str).encode


class FlightRecorder:
    """Structured event channel for one run.

    With ``path`` the recorder owns the JSONL sink and writes every event
    there before :meth:`emit` (or :meth:`ingest`) returns; with
    ``path=None`` it is a worker-side buffer whose :meth:`drain` output the
    parent feeds to :meth:`ingest`.  Either way :meth:`emit` is the one
    write API.  Thread-safe; cheap when idle.

    ``append=True`` keeps what the file holds (a resumed run's stream
    follows the interrupted run's): a torn last line is cut at the last
    newline, and ``seq`` continues after the last whole line.  The tallies
    (:meth:`summary`) count this recorder's own events.
    """

    def __init__(
        self,
        path: str | Path | None,
        experiment: str = "",
        clock: Callable[[], float] = time.time,
        append: bool = False,
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
        self._sink: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if append and self.path.exists():
                self._seq = _keep_whole_lines(self.path)
            self._sink = self.path.open("a" if append else "w")

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
        self._record((event,))
        return event

    def ingest(self, events: Iterable[Mapping[str, Any]]) -> int:
        """Fold worker-buffered events into this recorder's stream.

        The events keep their source timestamps and PIDs; this recorder
        assigns fresh global sequence numbers in arrival order (so ``seq``
        is a total order over the sink even when worker clocks interleave).
        Returns the number of events ingested.
        """
        batch = [dict(event) for event in events]
        self._record(batch)
        return len(batch)

    def _record(self, events: Iterable[dict[str, Any]]) -> None:
        """Sequence and tally ``events``, then buffer them or write them with one flush."""
        with self._lock:
            if self._closed:
                return
            for event in events:
                self._seq += 1
                event["seq"] = self._seq
                self.events_written += 1
                kind = event.get("kind", "?")
                self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
                if kind == "job.completed" and "job" in event:
                    self.worker_jobs.setdefault(int(event.get("pid", 0)), []).append(event["job"])
                if self._sink is None:
                    self._buffer.append(event)
                else:
                    self._sink.write(_encode(event) + "\n")
            if self._sink is not None:
                self._sink.flush()

    # ------------------------------------------------------------ worker side
    def drain(self) -> list[dict[str, Any]]:
        """Return (and clear) buffered events — the worker→parent payload."""
        with self._lock:
            events, self._buffer = self._buffer, []
        for event in events:
            event.pop("seq", None)  # the parent assigns global sequence numbers
        return events

    def flush(self) -> None:
        """Flush the sink (every event is already there when ``emit`` returns)."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

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
        """Emit ``run.end``, close the sink, and return :meth:`summary`."""
        if not self._closed:
            self.emit("run.end", events=self.events_written + 1, by_kind=dict(self.by_kind))
            with self._lock:
                self._closed = True
                if self._sink is not None:
                    self._sink.close()
                    self._sink = None
        return self.summary()


def _keep_whole_lines(path: Path) -> int:
    """Cut ``path`` after its last newline; the ``seq`` of its last whole event (0: none)."""
    with path.open("rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        fh.truncate(end)
    for line in reversed(data[:end].splitlines()):
        try:
            return int(json.loads(line)["seq"])
        except (ValueError, KeyError, TypeError):
            continue  # not a whole event: look further back
    return 0


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
class JsonlReader:
    """The one JSONL reader, for every ``*.jsonl`` artifact a run leaves behind.

    One policy: a line is a record iff it parses as a JSON object; anything
    else — the torn final line of a killed writer, a corrupt interior line,
    foreign text — is skipped and counted in :attr:`skipped`, so callers always
    see the valid records of a damaged file.  A byte that is not UTF-8 reads
    as U+FFFD, so it damages its line only.  Each :meth:`read` returns what
    was appended since the previous one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.skipped = 0
        self._offset = 0
        self._held = ""

    def read(self, follow: bool = False) -> list[dict[str, Any]]:
        """Records appended since the last call.

        ``follow=True`` is for tailing a file that is still being written:
        a file that does not exist yet reads as empty, and an unterminated
        tail is held back until its newline arrives ("not yet", rather than
        torn).  Otherwise the tail is read like any other line.
        """
        if follow and not self.path.exists():
            return []
        with self.path.open("r", errors="replace") as fh:
            fh.seek(self._offset)
            text = self._held + fh.read()
            self._offset = fh.tell()
        self._held = ""
        if follow:
            text, _, self._held = text.rpartition("\n")
        records: list[dict[str, Any]] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                self.skipped += 1
        return records


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Every record of a JSONL file (see :class:`JsonlReader` for the policy)."""
    return JsonlReader(path).read()


def read_flight_events(path: str | Path) -> list[dict[str, Any]]:
    """Read a flight JSONL back: the records that carry a ``kind``.

    A process killed mid-write leaves at most one truncated final line, which
    the reader skips, so consumers (``repro obs watch``, the Perfetto
    exporter, manifests) always see a valid prefix of the stream.
    """
    return [event for event in read_jsonl(path) if "kind" in event]


def event_head(event: Mapping[str, Any]) -> tuple[str, float, int]:
    """``(kind, t, pid)`` of one event, defaulted and typed — the common fields
    every fold of the stream reads."""
    return str(event.get("kind", "?")), float(event.get("t", 0.0)), int(event.get("pid", 0))


def flight_summary(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Offline :meth:`FlightRecorder.summary`: what a recorder that had seen
    ``events`` would report (minus the sink ``path``).

    The events are replayed through a buffer-mode recorder, so the tally —
    event count, count per kind, completed jobs per pid — exists once, in
    :meth:`FlightRecorder._record`.
    """
    replay = FlightRecorder(None)
    replay.ingest(events)
    summary = replay.summary()
    del summary["path"]
    return summary
