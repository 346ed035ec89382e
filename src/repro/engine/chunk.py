"""The chunk: what both off-process transports hand out, carry back and absorb.

A *chunk* is a run of consecutive plan jobs given to one worker and answered
as a whole, declared here once for pool and TCP coordinator alike, with the
codecs of what it carries (jobs out, outcomes back):

* **Size** — :func:`guided_size`: early chunks amortize round trips, late ones
  keep the fleet balanced.  The coordinator calls it per pull; the pool,
  whose fleet is fixed, precomputes the same sequence (:func:`guided_chunks`).
* **Result** — :func:`~repro.engine.driver.run_chunk` returns
  :meth:`ChunkResult.to_wire`, plain JSON-safe data: the pool pickles it,
  ``repro worker`` frames it, both parents decode it with the validating
  :meth:`ChunkResult.from_wire` in front of ``PlanDriver.settle``.
* **Refusal** — a chunk that cannot be absorbed is refused *whole*: ``from_wire``
  names the field in a :class:`ProtocolError`, and ``settle`` merges the
  registry, all or nothing, before it records anything.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.checkpoint import decode_value, encode_value
from repro.engine.jobs import Job
from repro.engine.retry import JobOutcome
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter

#: guided self-scheduling: a chunk is 1/(this × fleet) of what is still pending
CHUNKS_PER_WORKER = 4


def guided_size(pending: int, fleet: int) -> int:
    """How many of ``pending`` jobs the next chunk takes with ``fleet`` (>= 1) workers."""
    return max(1, -(-pending // (CHUNKS_PER_WORKER * fleet)))


def guided_chunks(jobs: list[Job], fleet: int) -> list[list[Job]]:
    """``jobs`` cut, in order, into the chunks a fixed ``fleet`` pulls one after another."""
    chunks, start = [], 0
    while start < len(jobs):
        chunks.append(jobs[start : start + guided_size(len(jobs) - start, fleet)])
        start += len(chunks[-1])
    return chunks


class ProtocolError(RuntimeError):
    """A malformed, oversized, or truncated frame — or a payload inside one."""


_ABSENT = object()


def typed(payload: Any, what: str, key: str, convert: Callable, default: Any = _ABSENT) -> Any:
    """``convert(payload[key])``; what it rejects is a :class:`ProtocolError` naming the field."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} payload is not an object: {payload!r:.80}")
    value = payload.get(key, default)
    if value is _ABSENT:
        raise ProtocolError(f"{what} payload lacks required field {key!r}")
    try:
        return convert(value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        why = str(exc) or type(exc).__name__
        raise ProtocolError(f"{what} field {key!r} is wrong-typed: {value!r:.80} ({why})") from None


def exactly(kind: type) -> Callable[[Any], Any]:
    """A :func:`typed` converter: a value already of this JSON type, not one coercible to it."""

    def check(value: Any) -> Any:
        if not isinstance(value, kind):
            raise TypeError
        return value

    return check


# -------------------------------------------------------------- wire codecs
def job_to_wire(job: Job) -> dict[str, Any]:
    """A job as a frame payload: name, ``module:qualname`` ref, tagged params."""
    fn = job.fn
    if getattr(fn, "__name__", "<lambda>") == "<lambda>" or "<locals>" in getattr(
        fn, "__qualname__", ""
    ):
        raise TypeError(
            f"job {job.name!r} function {fn!r} is not module-level; distributed "
            f"workers resolve functions by import, exactly like process pools pickle them"
        )
    return {
        "name": job.name,
        "fn": f"{fn.__module__}:{fn.__qualname__}",
        "params": encode_value(job.params),
    }


def resolve_job_fn(ref: str) -> Callable[..., Any]:
    """Import-resolve a ``module:qualname`` function reference."""
    module_name, sep, qualname = ref.partition(":")
    if not sep or not module_name or not qualname:
        raise ProtocolError(f"malformed function reference {ref!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ProtocolError(f"function reference {ref!r} resolved to non-callable {obj!r}")
    return obj


def job_from_wire(payload: dict[str, Any]) -> Job:
    """Inverse of :func:`job_to_wire` (imports the job function)."""
    return Job(
        name=typed(payload, "job", "name", exactly(str)),
        fn=resolve_job_fn(typed(payload, "job", "fn", exactly(str))),
        params=typed(payload, "job", "params", decode_value),
    )


def outcome_to_wire(outcome: JobOutcome) -> dict[str, Any]:
    """A job outcome as a frame payload (``execute_job`` left its value encodable)."""
    return {**vars(outcome), "value": encode_value(outcome.value) if outcome.ok else None}


def outcome_from_wire(payload: dict[str, Any]) -> JobOutcome:
    """Inverse of :func:`outcome_to_wire`."""
    return JobOutcome(
        name=typed(payload, "outcome", "name", exactly(str)),
        ok=typed(payload, "outcome", "ok", bool),
        value=typed(payload, "outcome", "value", decode_value, None),
        error=payload.get("error"),
        attempts=typed(payload, "outcome", "attempts", int, 1),
        timed_out=bool(payload.get("timed_out", False)),
        elapsed_s=typed(payload, "outcome", "elapsed_s", float, 0.0),
    )


def _heartbeat_summary(value: Any) -> dict[str, Any] | None:
    """None/empty, or a summary ``ProgressReporter.absorb`` accepts: a scratch reporter tries."""
    if value:
        ProgressReporter("scratch", interval_s=1e12).absorb(exactly(dict)(value))
    return value or None


def _flight_events(value: Any) -> list[dict[str, Any]]:
    # what FlightRecorder.ingest and the pool read off an event; plain checks: thirteen a job
    for event in exactly(list)(value):
        if not isinstance(event.get("kind"), str) or not isinstance(event.get("pid"), int):
            raise TypeError(f"malformed event {event!r:.80}")
    return value


@dataclass
class ChunkResult:
    """What running a batch of jobs produced, the one argument of ``PlanDriver.settle``: bare
    ``outcomes`` inline; off-process, also what ``run_chunk`` collected privately."""

    outcomes: list[JobOutcome]
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    heartbeat: dict[str, Any] | None = None
    flight: list[dict[str, Any]] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def to_wire(self) -> dict[str, Any]:
        """The ``chunk_done`` payload: the one encoder, carried as is by pickle and by frame."""
        return {
            "type": "chunk_done",
            **vars(self),
            "outcomes": [outcome_to_wire(outcome) for outcome in self.outcomes],
            "registry": self.registry.snapshot(),
        }

    @classmethod
    def from_wire(cls, wire: Any) -> "ChunkResult":
        """Inverse of :meth:`to_wire`, checking every field ``settle`` will touch, so a chunk
        is refused — :class:`ProtocolError` naming the field — before any of it is recorded."""
        what = "chunk_done"
        return cls(
            outcomes=list(map(outcome_from_wire, typed(wire, what, "outcomes", exactly(list), []))),
            registry=typed(wire, what, "registry", MetricsRegistry.from_rows, []),
            heartbeat=typed(wire, what, "heartbeat", _heartbeat_summary, None),
            flight=typed(wire, what, "flight", _flight_events, []),
            wall_s=typed(wire, what, "wall_s", float, 0.0),
            cpu_s=typed(wire, what, "cpu_s", float, 0.0),
        )
