"""The coordinator's core: the frame protocol and every decision, with no I/O.

:class:`CoordinatorCore` owns the jobs not handed out, the jobs each worker
holds (by name), the chunks being settled, the requeue and respawn budgets,
the plan's ``failure`` and the per-host attribution.  ``handle(event)``
applies one event whole or refuses it whole and returns the effects to carry
out; it holds no socket, thread, lock or clock, and
:mod:`repro.engine.distributed` is its shell.  Each of the ten frame types
is one row of :data:`FRAMES`, which both ends decode what they read against.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, NamedTuple

from repro.engine.chunk import (
    ChunkResult,
    ProtocolError,
    exactly,
    guided_size,
    job_from_wire,
    job_to_wire,
    typed,
)
from repro.engine.jobs import Job, JobPlan
from repro.engine.retry import JobError, RetryPolicy

__all__ = [
    "PROTOCOL_VERSION", "FRAMES", "decode_frame", "policy_to_wire", "policy_from_wire",
    "CoordinatorCore", "Received", "Lost", "Finished", "Tick", "Send", "Close", "Emit", "Call",
]

#: 2: ``chunk_done.registry`` is ``MetricsRegistry.snapshot()`` rows
PROTOCOL_VERSION = 2

#: how often workers beat (sent in the ``welcome``)
HEARTBEAT_INTERVAL_S = 1.0

#: a job whose workers died more often than this is given up (quarantined)
MAX_JOB_REQUEUES = 3

#: locally spawned workers that die with jobs unsettled are replaced this often
MAX_WORKER_RESPAWNS = 3

#: the connection states a frame can be legal in
HANDSHAKE, JOINED = "handshake", "joined"


# ------------------------------------------------------------------ protocol
def policy_to_wire(policy: RetryPolicy) -> dict[str, Any]:
    """A retry policy as plain fields (it is a frozen dataclass of scalars)."""
    return asdict(policy)


def policy_from_wire(payload: dict[str, Any]) -> RetryPolicy:
    """Inverse of :func:`policy_to_wire`; a field the policy lacks or refuses is a ProtocolError."""
    try:
        return RetryPolicy(**payload)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"policy payload is malformed: {exc}") from None


def _jobs(payloads: Any) -> list[Job]:
    return [job_from_wire(payload) for payload in exactly(list)(payloads)]


class FrameType(NamedTuple):
    """Who sends a frame, the connection states it is legal in, and what it carries."""

    sender: str
    states: tuple[str, ...]
    #: ``(name, JSON type as the table shows it, converter[, default])`` per field
    fields: tuple[tuple, ...] = ()
    #: a frame decoded whole by its own codec instead of field by field
    decoder: Callable[[Any], Any] | None = None


FRAMES: dict[str, FrameType] = {
    "hello": FrameType("worker", (HANDSHAKE,), (
        ("host", "str", exactly(str), "?"),
        ("pid", "int", int, 0),
        ("protocol", "int", int, PROTOCOL_VERSION),
    )),
    "welcome": FrameType("coordinator", (HANDSHAKE,), (
        ("protocol", "int", int),
        ("worker", "int", int),
        ("experiment", "str", exactly(str)),
        ("seed", "int", int),
        ("policy", "RetryPolicy", policy_from_wire),
        ("heartbeat_interval_s", "float", float),
    )),
    "heartbeat": FrameType("worker", (JOINED,)),
    "next": FrameType("worker", (JOINED,)),
    "chunk": FrameType("coordinator", (JOINED,), (("jobs", "list[job]", _jobs),)),
    "idle": FrameType("coordinator", (JOINED,), (("wait_s", "float", float, 0.05),)),
    "shutdown": FrameType("coordinator", (JOINED,)),
    "chunk_done": FrameType("worker", (JOINED,), decoder=ChunkResult.from_wire),
    "job_error": FrameType("worker", (JOINED,), (
        ("experiment", "str", exactly(str)),
        ("job", "str", exactly(str)),
        ("cause", "str", exactly(str)),
    )),
    "goodbye": FrameType("worker", (JOINED,)),
}


def decode_frame(frame: dict[str, Any], sender: str) -> Any:
    """A ``sender``'s frame checked against :data:`FRAMES`: its fields by name, or its codec's
    object; a :class:`ProtocolError` naming the frame and the field it refuses."""
    kind = frame["type"]
    frame_type = FRAMES.get(kind) if isinstance(kind, str) else None
    if frame_type is None or frame_type.sender != sender:
        raise ProtocolError(f"a {sender} does not send {kind!r} frames")
    if frame_type.decoder is not None:
        return frame_type.decoder(frame)
    return {
        name: typed(frame, kind, name, convert, *default)
        for name, _, convert, *default in frame_type.fields
    }


# ---------------------------------------------------------- events, effects
# what the shell posts: a frame that decoded to ``body``; a connection ended
# (``reason``; ``why``: what its reader could not decode, if that was it); the
# ``settle`` of ``ticket`` returned or refused the chunk; the spawned processes
# found dead since the last tick, and those running
Received = namedtuple("Received", "conn kind body")
Lost = namedtuple("Lost", "conn reason why", defaults=("disconnect", None))
Finished = namedtuple("Finished", "ticket refused", defaults=(None,))
Tick = namedtuple("Tick", "exited running")

# what the core asks for: a frame to send; a connection to close (``why`` is
# printed as ``[distributed] dropping <why>``); a flight event; a ``PlanDriver``
# call, answered by a ``Finished`` if it has a ``ticket``
Send = namedtuple("Send", "conn frame")
Close = namedtuple("Close", "conn why", defaults=(None,))
Emit = namedtuple("Emit", "kind fields")
Call = namedtuple("Call", "method args fields ticket", defaults=((), None, None))


# ---------------------------------------------------------------------- core
@dataclass
class Worker:
    """One joined worker: who it is, what it holds, what it has settled."""

    wid: int
    conn: int
    host: str
    pid: int
    #: jobs handed to this worker and not yet answered, by name — at most two
    #: chunks' worth, since a worker pulls its next chunk before it reports
    held: dict[str, Job] = field(default_factory=dict)
    jobs: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    alive: bool = True


class CoordinatorCore:
    """Serve one plan's job queue to pull-based workers, as a pure state machine.

    A ``next`` is answered with a guided-size chunk, ``idle`` or ``shutdown``.
    ``fleet`` (the workers the executor spawned) counts in full from the first
    pull, so the first spawned worker to finish starting gets its share, not
    a lone worker's.  The plan's jobs are always partitioned into pending,
    held, settling, settled and given up.
    """

    def __init__(
        self, plan: JobPlan, remaining: list[Job], policy: RetryPolicy, fleet: int
    ) -> None:
        self.plan = plan
        self.policy = policy
        self.fleet = fleet
        self.pending: deque[Job] = deque(remaining)
        self.names = {job.name for job in remaining}
        #: by ticket: the worker whose ``chunk_done`` is being settled, and the jobs it answers
        self.settling: dict[int, tuple[Worker, list[Job], ChunkResult]] = {}
        self.settled: set[str] = set()
        #: requeue budget exhausted: quarantined, or the plan failed
        self.given_up: set[str] = set()
        self.failure: JobError | None = None
        self.workers: dict[int, Worker] = {}
        #: joined connections, to their worker id
        self.conns: dict[int, int] = {}
        self.requeues: dict[str, int] = {}
        self.previous_owner: dict[str, int] = {}
        self.jobs_stolen = 0
        self.respawns = 0
        #: spawned workers that died with no respawn budget left to replace them
        self.unreplaced = 0
        self.tickets = 0

    @property
    def done(self) -> bool:
        """No job left to hand out, answer or settle — or the plan has failed."""
        if self.failure is not None:
            return True
        held = any(w.held for w in self.workers.values())
        return not (self.pending or held or any(jobs for _, jobs, _ in self.settling.values()))

    def host_attribution(self) -> dict[str, dict[str, Any]]:
        """Manifest block: per-worker host, pid, jobs, wall/CPU seconds."""
        return {
            str(w.wid): {
                "host": w.host, "pid": w.pid, "jobs": w.jobs,
                "wall_s": round(w.wall_s, 6), "cpu_s": round(w.cpu_s, 6),
            }
            for w in self.workers.values()
        }

    def handle(self, event: Received | Lost | Finished | Tick) -> list[Send | Close | Emit | Call]:
        """Apply one event whole or refuse it whole; the effects to carry out, in order."""
        match event:
            case Received(conn, kind, body):
                wid = self.conns.get(conn)
                state = HANDSHAKE if wid is None else JOINED
                if state not in FRAMES[kind].states:
                    return self._refuse(conn, f"a {kind!r} frame is illegal while {state}")
                return getattr(self, f"_{kind}")(conn, wid, body)
            case Lost(conn, reason, why):
                if conn not in self.conns:
                    return self._refuse(conn, why)
                return self._retire(self.workers[self.conns[conn]], reason, why)
            case Finished(ticket, refused):
                return self._finished(*self.settling.pop(ticket), refused)
            case Tick(exited, running):
                return self._tick(exited, running)
        raise TypeError(f"not a coordinator event: {event!r}")

    def _refuse(self, conn: int, why: str | None) -> list[Close]:
        """Hang up on ``conn``, which the shell then reports ``Lost``; ``why`` names the peer."""
        worker = self.workers.get(self.conns.get(conn))
        peer = f"{worker.host}/{worker.pid}" if worker else "an unregistered peer"
        return [Close(conn, why and f"{peer}: {why}")]

    def _hello(self, conn: int, _wid: None, hello: dict[str, Any]) -> list:
        if hello["protocol"] != PROTOCOL_VERSION:
            return self._refuse(
                conn, f"hello field 'protocol' is {hello['protocol']}, not {PROTOCOL_VERSION}"
            )
        worker = Worker(len(self.workers) + 1, conn, hello["host"], hello["pid"])
        self.workers[worker.wid] = worker
        self.conns[conn] = worker.wid
        welcome = {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "worker": worker.wid,
            "experiment": self.plan.experiment,
            "seed": self.plan.seed,
            "policy": policy_to_wire(self.policy),
            "heartbeat_interval_s": HEARTBEAT_INTERVAL_S,
        }
        join = dict(pid=worker.pid, worker=worker.wid, host=worker.host, workers=len(self.conns))
        return [Emit("worker.join", join), Send(conn, welcome)]

    def _heartbeat(self, conn: int, wid: int, _body: dict) -> list:
        return []

    def _next(self, conn: int, wid: int, _body: dict) -> list:
        if self.done:
            return [Send(conn, {"type": "shutdown"})]
        if not self.pending:
            # chunks outstanding (this worker's unreported one included): poll
            # again shortly — if their worker dies, the requeued jobs are this
            # worker's to steal
            return [Send(conn, {"type": "idle", "wait_s": 0.05})]
        worker, effects = self.workers[wid], []
        size = guided_size(len(self.pending), max(len(self.conns), self.fleet))
        chunk = [self.pending.popleft() for _ in range(size)]
        for job in chunk:
            worker.held[job.name] = job
            previous = self.previous_owner.pop(job.name, None)
            if previous is not None and previous != wid:
                self.jobs_stolen += 1
                stolen = dict(job=job.name, pid=worker.pid, worker=wid, from_worker=previous)
                effects.append(Emit("job.stolen", stolen))
            effects.append(Emit("job.submitted", dict(job=job.name, pid=worker.pid, worker=wid)))
        effects.append(Send(conn, {"type": "chunk", "jobs": [job_to_wire(job) for job in chunk]}))
        return [*effects, self._sample()]

    def _chunk_done(self, conn: int, wid: int, result: ChunkResult) -> list:
        worker = self.workers[wid]
        for name in (outcome.name for outcome in result.outcomes):
            # unknown or settled names go through, for settle to drop; an
            # unsettled one this worker does not hold is not its to answer
            if name in worker.held or name not in self.names:
                continue
            if name not in self.settled and name not in self.given_up:
                return self._refuse(conn, f"chunk_done answers {name!r}, which it does not hold")
        answered = [worker.held.pop(o.name) for o in result.outcomes if o.name in worker.held]
        self.tickets += 1
        self.settling[self.tickets] = (worker, answered, result)
        return [Call("settle", (result,), ticket=self.tickets)]

    def _job_error(self, conn: int, wid: int, error: dict[str, str]) -> list:
        """A fail-fast worker reported a job failure: the whole plan stops."""
        if self.failure is None:
            self.failure = JobError(error["experiment"], error["job"], error["cause"])
        return []

    def _goodbye(self, conn: int, wid: int, _body: dict) -> list:
        return self._retire(self.workers[wid], "left", None)

    def _finished(self, worker: Worker, jobs: list[Job], result: ChunkResult, refused) -> list:
        if refused is None:
            self.settled.update(job.name for job in jobs)
            worker.jobs += len(jobs)
            worker.wall_s += result.wall_s
            worker.cpu_s += result.cpu_s
            return [self._sample()]
        # refused whole: nothing of it was recorded, its jobs go back where they were
        if not worker.alive:
            return self._requeue(worker, jobs)[1]
        worker.held.update((job.name, job) for job in jobs)
        return self._refuse(worker.conn, f"chunk_done field 'registry' is refused: {refused}")

    def _retire(self, worker: Worker, reason: str, why: str | None) -> list:
        """A worker left or died: requeue (or give up) whatever it still held."""
        close = self._refuse(worker.conn, why)
        worker.alive = False
        del self.conns[worker.conn]
        held, worker.held = worker.held, {}
        requeued, effects = self._requeue(worker, held.values())
        leave = dict(pid=worker.pid, worker=worker.wid, host=worker.host, reason=reason,
                     jobs=worker.jobs, requeued=requeued, workers=len(self.conns))
        return [*effects, Emit("worker.leave", leave), *close]

    def _requeue(self, worker: Worker, jobs) -> tuple[int, list]:
        requeued, effects = 0, []
        for job in jobs:
            self.requeues[job.name] = self.requeues.get(job.name, 0) + 1
            if self.requeues[job.name] > MAX_JOB_REQUEUES:
                effects += self._give_up(job)
                continue
            self.previous_owner[job.name] = worker.wid
            self.pending.appendleft(job)
            requeued += 1
        return requeued, effects

    def _give_up(self, job: Job) -> list:
        """A job that keeps killing its workers: quarantine it, or fail the plan."""
        self.given_up.add(job.name)
        error = (
            f"workers died {self.requeues[job.name]} times while running this job "
            f"(requeue budget {MAX_JOB_REQUEUES})"
        )
        if self.policy.quarantine:
            return [Call("quarantine", (job.name, error))]
        if self.failure is None:
            self.failure = JobError(self.plan.experiment, job.name, error)
        return []

    def _tick(self, exited: int, running: int) -> list:
        """Replace dead spawned workers while jobs remain, within the respawn budget."""
        if self.done:
            return []
        replace = min(exited, MAX_WORKER_RESPAWNS - self.respawns)
        self.respawns += replace
        self.unreplaced += exited - replace
        if self.unreplaced and running + replace == 0 and not self.conns:
            self.failure = JobError(
                self.plan.experiment,
                "<fleet>",
                f"all spawned workers died and the respawn budget "
                f"({MAX_WORKER_RESPAWNS}) is exhausted",
            )
        return [Call("respawned", (0,), {"backend": "distributed"})] * replace

    def _sample(self) -> Call:
        busy = sum(1 for w in self.workers.values() if w.alive and w.held)
        return Call("sample_scheduler", (busy, len(self.conns)))
