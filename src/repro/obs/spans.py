"""Causal spans layered on the structured trace.

A :class:`SpanLog` turns a flat :class:`~repro.simkit.trace.TraceRecorder`
into a causal record of each failure's lifecycle: the fault injector opens
an *incident* root span when a component goes down, every observing daemon
hangs its detection/failover/discovery/restore spans off that incident, and
closing a span emits one ``span``-category trace entry carrying the full
(start, end, parent, incident) tuple.  Because spans ride the existing
trace, they flow into ``<name>.trace.jsonl`` artifacts for free and can be
reconstructed offline with :func:`spans_from_entries`.

Exports:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome trace-event
  JSON (the ``traceEvents`` array format) loadable in Perfetto or
  ``chrome://tracing``; one pid per node, one tid per phase.
* :func:`flight_to_chrome_trace` / :func:`write_flight_chrome_trace` — the
  same format from engine flight-recorder events
  (:mod:`repro.obs.flightrecorder`): one process track per worker PID plus
  a scheduler track with queue-depth/utilization counters.
* :mod:`repro.obs.postmortem` consumes the same spans to reconstruct the
  detection→repair critical path per incident.

Cost discipline: every instrumentation site gates on :meth:`SpanLog.wants`
(one attribute access + the recorder's ``wants`` set lookup), so a disabled
trace — the benchmark configuration — pays no span overhead.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.flightrecorder import KINDS, event_head, read_jsonl
from repro.obs.precision import cell_from_event
from repro.simkit.trace import TraceEntry, TraceRecorder

#: trace category all closed spans are emitted under
SPAN_CATEGORY = "span"


@dataclass
class Span:
    """One causal interval in simulated time.

    ``incident_id`` groups every span of one failure lifecycle; for the
    root (the fault itself) it equals ``span_id``.  ``end`` is ``None``
    while the span is open.
    """

    span_id: int
    name: str
    phase: str
    start: float
    end: float | None = None
    parent_id: int | None = None
    incident_id: int | None = None
    node: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        """Span length in simulated seconds, or ``None`` while open."""
        return None if self.end is None else self.end - self.start

    @property
    def closed(self) -> bool:
        """True once :meth:`SpanLog.end` has sealed the span."""
        return self.end is not None

    def to_fields(self) -> dict[str, Any]:
        """Flat dict form, the payload of the emitted trace entry."""
        fields: dict[str, Any] = {
            "span_id": self.span_id,
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
        }
        if self.parent_id is not None:
            fields["parent_id"] = self.parent_id
        if self.incident_id is not None:
            fields["incident_id"] = self.incident_id
        if self.node is not None:
            fields["node"] = self.node
        if self.attrs:
            fields["attrs"] = dict(self.attrs)
        return fields

    @classmethod
    def from_fields(cls, fields: Mapping[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_fields` output (or its JSON form)."""
        return cls(
            span_id=int(fields["span_id"]),
            name=str(fields["name"]),
            phase=str(fields["phase"]),
            start=float(fields["start"]),
            end=None if fields.get("end") is None else float(fields["end"]),
            parent_id=None if fields.get("parent_id") is None else int(fields["parent_id"]),
            incident_id=None if fields.get("incident_id") is None else int(fields["incident_id"]),
            node=None if fields.get("node") is None else int(fields["node"]),
            attrs=dict(fields.get("attrs") or {}),
        )


class SpanLog:
    """Span factory and open-incident registry for one trace recorder.

    One log per recorder, shared by every instrumented component; obtain it
    with :func:`span_log` rather than constructing directly so the fault
    injector and the daemons correlate through the same registry.
    """

    def __init__(self, trace: TraceRecorder) -> None:
        self.trace = trace
        self._ids = itertools.count(1)
        #: every span ever begun, in begin order (open and closed)
        self.spans: list[Span] = []
        self._open: dict[int, Span] = {}
        #: component name -> open incident root span
        self._open_incidents: dict[str, Span] = {}

    # -------------------------------------------------------------- hot gate
    def wants(self) -> bool:
        """True iff span emission is currently enabled on the trace."""
        return self.trace.wants(SPAN_CATEGORY)

    # ------------------------------------------------------------- lifecycle
    def begin(
        self,
        name: str,
        phase: str,
        *,
        node: int | None = None,
        parent: Span | None = None,
        start: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at ``start`` (default: now), causally under ``parent``."""
        span = Span(
            span_id=next(self._ids),
            name=name,
            phase=phase,
            start=self.trace.sim.now if start is None else start,
            parent_id=parent.span_id if parent is not None else None,
            incident_id=(parent.incident_id or parent.span_id) if parent is not None else None,
            node=node,
            attrs=attrs,
        )
        self.spans.append(span)
        self._open[span.span_id] = span
        return span

    def end(self, span: Span, *, end: float | None = None, **attrs: Any) -> Span:
        """Seal a span and emit it as one ``span`` trace entry.

        Idempotent: ending an already-closed span is a no-op, so a flush at
        scenario teardown cannot double-emit a daemon's lifetime span.
        """
        if span.end is not None:
            return span
        span.end = self.trace.sim.now if end is None else end
        span.attrs.update(attrs)
        self._open.pop(span.span_id, None)
        self.trace.record(SPAN_CATEGORY, **span.to_fields())
        return span

    def closed(
        self,
        name: str,
        phase: str,
        *,
        start: float,
        end: float | None = None,
        node: int | None = None,
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished interval (e.g. a timed-out probe)."""
        span = self.begin(name, phase, node=node, parent=parent, start=start, **attrs)
        return self.end(span, end=end)

    def flush(self, end: float | None = None) -> list[Span]:
        """Seal every still-open span (marked ``unfinished``) and emit it.

        Called at run teardown so long-lived spans (daemon lifetimes,
        unrepaired incidents) still reach the trace artifact.
        """
        flushed = []
        for span in list(self._open.values()):
            flushed.append(self.end(span, end=end, unfinished=True))
        self._open_incidents.clear()
        return flushed

    # -------------------------------------------------------------- incidents
    def incident_begin(self, component: str, kind: str = "") -> Span:
        """Open the root span of a new failure incident."""
        span = self.begin(f"incident:{component}", "fault", component=component, kind=kind)
        span.incident_id = span.span_id
        self._open_incidents[component] = span
        return span

    def incident_end(self, component: str) -> Span | None:
        """Close the open incident for ``component`` (the repair), if any."""
        span = self._open_incidents.pop(component, None)
        if span is not None:
            self.end(span)
        return span

    def find_incident(
        self,
        node: int | None = None,
        peer: int | None = None,
        network: int | None = None,
    ) -> Span | None:
        """The open incident a (node, peer, network) observation belongs to.

        Prefers the component that physically explains the loss — the
        peer's NIC on that network, our own NIC, then the shared hub —
        falling back to the most recent open incident (a gray failure the
        injector attributed differently).
        """
        names = []
        if peer is not None and network is not None:
            names.append(f"nic{peer}.{network}")
        if node is not None and network is not None:
            names.append(f"nic{node}.{network}")
        if network is not None:
            names.append(f"hub{network}")
        for name in names:
            span = self._open_incidents.get(name)
            if span is not None:
                return span
        if self._open_incidents:
            return next(reversed(self._open_incidents.values()))  # most recent
        return None


def span_log(trace: TraceRecorder) -> SpanLog:
    """The shared :class:`SpanLog` of a recorder, created on first use."""
    log = getattr(trace, "_span_log", None)
    if log is None:
        log = SpanLog(trace)
        trace._span_log = log
    return log


# ------------------------------------------------------------- reconstruction
def spans_from_entries(entries: Iterable[TraceEntry | Mapping[str, Any]]) -> list[Span]:
    """Rebuild spans from trace entries or JSONL rows.

    Accepts live :class:`TraceEntry` objects and the flat dict rows written
    by :func:`repro.obs.artifacts.write_trace_jsonl` interchangeably.
    """
    spans: list[Span] = []
    for entry in entries:
        if isinstance(entry, TraceEntry):
            if entry.category != SPAN_CATEGORY:
                continue
            spans.append(Span.from_fields(entry.fields))
        else:
            if entry.get("category") != SPAN_CATEGORY:
                continue
            spans.append(Span.from_fields(entry))
    spans.sort(key=lambda s: (s.start, s.span_id))
    return spans


def load_trace_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a ``*.trace.jsonl`` artifact back into flat dict rows.

    Through the one reader (:func:`repro.obs.flightrecorder.read_jsonl`): a
    torn final line is skipped, not raised.  ``write_trace_jsonl`` replaces
    the file atomically, so only a file some other writer tore has one.
    """
    return read_jsonl(path)


# --------------------------------------------------------- Chrome trace export
#: trace categories exported as instant markers alongside the span bars
INSTANT_CATEGORIES = {
    "fault",
    "drs-detect",
    "drs-repair",
    "drs-restore",
    "drs-unreachable",
    "reactive-detect",
    "reactive-repair",
}

_CLUSTER_PID = 0  # spans with no node (incidents) land in a "cluster" process


def _tid_for(phase: str, tids: dict[str, int]) -> int:
    return tids.setdefault(phase, len(tids) + 1)


def _bar(name: str, cat: str, ts: float, dur: float, pid: int, tid: int, args: dict) -> dict:
    """A complete (``ph: "X"``) event."""
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid,
            "args": args}


def _instant(name: str, cat: str, ts: float, pid: int, tid: int, args: dict) -> dict:
    """A global-scope instant (``ph: "i"``) marker."""
    return {"name": name, "cat": cat, "ph": "i", "s": "g", "ts": ts, "pid": pid, "tid": tid,
            "args": args}


def _document(pids: dict[int, str], tids: dict[str, int], events: list[dict]) -> dict[str, Any]:
    """The trace document: ``M`` records naming every process and thread, then the events."""
    meta: list[dict[str, Any]] = []
    for pid, name in sorted(pids.items()):
        meta.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": name}})
        for thread, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            meta.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": {"name": thread}}
            )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _write_document(path: str | Path, doc: dict[str, Any]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")
    return path


def to_chrome_trace(
    spans: Iterable[Span],
    instants: Iterable[TraceEntry | Mapping[str, Any]] = (),
) -> dict[str, Any]:
    """Convert spans (plus optional point events) to Chrome trace-event JSON.

    Output follows the Trace Event Format's JSON-object flavour: complete
    (``ph: "X"``) events with microsecond ``ts``/``dur`` in *simulated*
    time, one pid per node (pid 0 is the cluster-wide lane for incidents),
    one tid per phase, and ``M`` metadata records naming both.  The result
    loads directly in Perfetto / ``chrome://tracing``.
    """
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}
    pids: dict[int, str] = {}

    def lane(node: Any) -> int:
        pid = _CLUSTER_PID if node is None else int(node) + 1
        pids.setdefault(pid, "cluster" if node is None else f"node{node}")
        return pid

    horizon = 0.0
    spans = list(spans)
    for span in spans:
        horizon = max(horizon, span.start, span.end or 0.0)

    for span in spans:
        end = span.end if span.end is not None else horizon
        args: dict[str, Any] = {"span_id": span.span_id, **span.attrs}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.incident_id is not None:
            args["incident_id"] = span.incident_id
        events.append(
            _bar(span.name, span.phase, span.start * 1e6, max(0.0, end - span.start) * 1e6,
                 lane(span.node), _tid_for(span.phase, tids), args)
        )

    for entry in instants:
        if isinstance(entry, TraceEntry):
            category, time, fields = entry.category, entry.time, entry.fields
        else:
            fields = dict(entry)
            category = fields.pop("category", "?")
            time = float(fields.pop("time", 0.0))
        if category not in INSTANT_CATEGORIES:
            continue
        events.append(
            _instant(category, category, time * 1e6, lane(fields.get("node")),
                     _tid_for("events", tids), {k: v for k, v in fields.items() if k != "node"})
        )
    return _document(pids, tids, events)


def write_chrome_trace(
    path: str | Path,
    spans: Iterable[Span],
    instants: Iterable[TraceEntry | Mapping[str, Any]] = (),
) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    return _write_document(path, to_chrome_trace(spans, instants))


def validate_chrome_trace(doc: Any) -> list[str]:
    """Schema-check a Chrome trace document; returns a list of problems.

    An empty list means the document satisfies the subset of the Trace
    Event Format that Perfetto requires: a ``traceEvents`` array whose
    entries carry ``ph``/``pid``/``ts`` with the right types, complete
    events additionally a non-negative ``dur``, and counter events
    (``ph: "C"``, the scheduler-track gauges) numeric ``args``.
    """
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document must be an object with a 'traceEvents' array"]
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in {"X", "i", "M", "B", "E", "s", "f", "t", "C"}:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing name")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number, got {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs non-negative dur, got {dur!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: C event needs a dict of numeric args, got {args!r}")
    return problems


# ------------------------------------------------- flight-recorder trace export
def _drawn_as(how: str) -> set[str]:
    return {name for name, kind in KINDS.items() if kind.draw == how}


#: flight-event kinds rendered as job bars on their worker's track
FLIGHT_JOB_BARS = _drawn_as("bar")

#: flight-event kinds rendered as instant markers on their worker's track
FLIGHT_INSTANT_KINDS = _drawn_as("worker")

#: flight-event kinds rendered as instant markers on the scheduler track
FLIGHT_SCHEDULER_INSTANTS = _drawn_as("scheduler")

_SCHEDULER_PID = 0
_FLIGHT_TIDS = {"jobs": 1, "events": 2}


def flight_to_chrome_trace(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Convert flight-recorder events to Chrome trace-event JSON.

    One Perfetto process per worker OS pid (named ``worker <pid>``; the
    coordinating process is named ``scheduler``), with:

    * complete (``ph: "X"``) job bars on each worker's ``jobs`` thread,
      reconstructed from ``job.completed`` / ``job.quarantined`` events and
      their recorded wall time (a job's bar ends at the event and extends
      ``wall_s`` back, covering every attempt and backoff);
    * instant markers for submissions, retries, timeouts, checkpoint
      writes, pool respawns, and worker spawn/exit;
    * counter (``ph: "C"``) tracks on the scheduler process fed by
      ``scheduler.gauge`` samples — queue depth and pool utilization over
      wall time — plus a ``ci half-width`` counter fed by ``stats.cell``
      precision snapshots: the worst current Wilson half-width over the
      latest state of every Monte Carlo cell, so convergence to the
      adaptive-stopping target is visible as a decaying staircase.

    Timestamps are microseconds since the first event (Perfetto needs
    non-negative ``ts``); wall-clock ordering across workers is preserved
    because every event carries the emitting process's own clock.
    """
    events = list(events)
    t0 = min((event_head(event)[1] for event in events), default=0.0)
    scheduler_os_pid: int | None = None
    for event in events:
        if event.get("kind") in ("plan.begin", "plan.end", "run.end"):
            scheduler_os_pid = int(event.get("pid", 0))
            break

    pids: dict[int, str] = {}

    def track(os_pid: int) -> int:
        if scheduler_os_pid is not None and os_pid == scheduler_os_pid:
            return scheduler()
        pids.setdefault(os_pid, f"worker {os_pid}")
        return os_pid

    def scheduler() -> int:
        pids.setdefault(_SCHEDULER_PID, "scheduler")
        return _SCHEDULER_PID

    def counter(name: str, ts: float, **args: float) -> dict[str, Any]:
        return {"name": name, "ph": "C", "ts": ts, "pid": scheduler(),
                "tid": _FLIGHT_TIDS["events"], "args": args}

    out: list[dict[str, Any]] = []
    #: latest half-width per Monte Carlo cell, for the running-worst counter
    cell_widths: dict[tuple, float] = {}
    for event in events:
        kind, t, os_pid = event_head(event)
        ts = max(0.0, (t - t0) * 1e6)
        pid = track(os_pid)
        if kind in FLIGHT_JOB_BARS:
            wall_us = max(0.0, float(event.get("wall_s", 0.0)) * 1e6)
            args = {
                k: v
                for k, v in event.items()
                if k in ("attempts", "ok", "seed_fingerprint", "cpu_s", "error", "timed_out")
            }
            out.append(_bar(str(event.get("job", "?")), kind, max(0.0, ts - wall_us), wall_us,
                            pid, _FLIGHT_TIDS["jobs"], args))
        elif kind == "scheduler.gauge":
            out.append(counter("queue depth", ts, jobs=float(event.get("queue_depth", 0))))
            out.append(counter("pool utilization", ts,
                               busy_fraction=float(event.get("utilization", 0.0))))
        elif kind == "stats.cell":
            key, row = cell_from_event(event)
            cell_widths[key] = row["half_width"]
            out.append(counter("ci half-width", ts, worst=max(cell_widths.values())))
        elif kind in FLIGHT_INSTANT_KINDS or kind in FLIGHT_SCHEDULER_INSTANTS:
            name = kind if "job" not in event else f"{kind}: {event['job']}"
            args = {
                k: v
                for k, v in event.items()
                if k not in ("t", "kind", "pid", "seq", "experiment") and v is not None
            }
            if kind in FLIGHT_SCHEDULER_INSTANTS:
                pid = scheduler()
            out.append(_instant(name, kind, ts, pid, _FLIGHT_TIDS["events"], args))
    return _document(pids, _FLIGHT_TIDS, out)


def write_flight_chrome_trace(path: str | Path, events: Iterable[Mapping[str, Any]]) -> Path:
    """Write :func:`flight_to_chrome_trace` output as JSON; returns the path."""
    return _write_document(path, flight_to_chrome_trace(events))
