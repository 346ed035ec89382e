"""Multi-host distributed execution: a coordinator + worker TCP protocol.

The third transport of the :class:`~repro.engine.driver.PlanDriver` (after
the inline :class:`~repro.engine.executors.SerialExecutor` and the
process-pool :class:`~repro.engine.executors.ParallelExecutor`): a
:class:`DistributedExecutor` runs the **coordinator** for one plan, and any
number of ``drs-worker`` processes — on this machine or others — connect over
TCP, pull job chunks, and stream results back.  Workers may join and leave at
any point of the run (elastic membership); the protocol is loopback by
default and binds a routable address with ``--coordinator 0.0.0.0:PORT``.
The coordinator owns only the *queue* — which jobs are handed out, to whom,
and what a dead worker costs; which jobs are settled, and everything done
with a result, is the driver's.

Wire format
-----------

Length-prefixed JSON frames: a 4-byte big-endian length followed by one
UTF-8 JSON object.  Job params and values cross the wire through the
checkpoint codec (:func:`~repro.engine.checkpoint.encode_value` /
:func:`decode_value`), so tuples and NumPy scalars/arrays survive exactly;
job *functions* travel as ``"module:qualname"`` references resolved by
import on the worker (the same module-level-function rule process pools
already impose).  Workers therefore trust their coordinator — run the
protocol on a loopback or private network, not the open internet.

Scheduling
----------

The coordinator owns the job queue; **workers pull** (work stealing in the
scheduling-theory sense — there is no push or static partition).  Chunk
sizes follow guided self-scheduling: each pull takes
``ceil(pending / (chunks_per_worker * fleet))`` jobs, so early chunks
amortize round trips and late chunks keep the fleet balanced; ``fleet`` is
the larger of the workers alive at that instant and the workers the
executor spawned, so the first spawned worker to finish importing is not
handed the share of a one-worker fleet.

The chunk is the unit of the wire.  A worker **pulls before it reports**:
having run chunk A it sends ``next``, takes the answer (chunk B, ``idle`` or
``shutdown``) and only then sends ``chunk_done(A)`` — it runs B while the
coordinator settles A (checkpoint commit, registry merge, flight ingest), so
it never waits for its own settle.  The coordinator therefore tracks, per
worker, the *jobs handed to it and not yet answered*, by name — at most two
chunks' worth; a ``chunk_done`` removes exactly the names it answers.  A
peer that speaks ``next`` → ``chunk`` → ``chunk_done`` one at a time is the
same protocol with nothing in hand while it asks.  Pulls are answered from
the queue under a lock of their own: settles stay one at a time, but a pull
never waits behind another worker's settle.  Both ends set ``TCP_NODELAY``:
a worker writes ``chunk_done`` and later ``next`` with no reply in between,
and under Nagle's algorithm the second write waits for the coordinator's
delayed ACK of the first (~40 ms per chunk, against frames 14 µs apart).

A worker that misses its heartbeat deadline (or whose connection drops — a
SIGKILLed worker closes its socket immediately) is declared dead: whatever
it still held is requeued and the next pull picks the jobs up, recorded as
``job.stolen`` flight events.  A job whose workers keep dying exhausts a
requeue budget and lands in the existing quarantine machinery (or raises
:class:`~repro.engine.retry.JobError` under a fail-fast policy), exactly
like a poison job that keeps breaking a process pool.

Because every job's stream is spawned from ``(root seed, experiment, job
name)``, none of this affects values: serial, ``--jobs N``, and distributed
runs — including runs where workers died mid-chunk — produce byte-identical
CSVs.  Schedules shape wall time and event ordering, never results.

Observability
-------------

Workers run the shared :func:`~repro.engine.driver.run_chunk` path, so
each chunk returns its private metrics registry, silent heartbeat summary,
and buffered flight events; the coordinator decodes the frame and hands all
four to :meth:`PlanDriver.settle <repro.engine.driver.PlanDriver.settle>`,
the call the process-pool parent makes.  The coordinator additionally emits
``worker.join`` / ``worker.leave`` / ``job.stolen`` events, and the final
:class:`~repro.engine.driver.PlanExecution` carries per-host attribution
(host, pid, jobs, wall/CPU seconds per worker) that ``run_plan`` folds into
the manifest under ``engine.hosts``.
"""

from __future__ import annotations

import json
import math
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable

from repro.engine.checkpoint import Checkpoint, decode_value, encode_value
from repro.engine.driver import PlanDriver, PlanExecution
from repro.engine.jobs import Job, JobPlan
from repro.engine.retry import FAIL_FAST, JobError, JobOutcome, RetryPolicy
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "send_frame",
    "recv_frame",
    "parse_address",
    "job_to_wire",
    "job_from_wire",
    "outcome_to_wire",
    "outcome_from_wire",
    "policy_to_wire",
    "policy_from_wire",
    "registry_to_wire",
    "registry_from_wire",
    "Coordinator",
    "DistributedExecutor",
]

PROTOCOL_VERSION = 1

#: hard ceiling on one frame; a legitimate chunk result is orders smaller
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: how often workers beat, and how long the coordinator waits before
#: declaring a silent worker dead (a dead *process* is detected faster,
#: through its closed socket; the deadline catches network partitions)
HEARTBEAT_INTERVAL_S = 1.0
HEARTBEAT_TIMEOUT_S = 10.0

#: test/CI fault injection: a worker SIGKILLs itself on starting its
#: (k+1)-th chunk — i.e. it dies *mid-chunk*, with jobs outstanding
WORKER_CRASH_ENV = "DRS_WORKER_CRASH_AFTER_CHUNKS"


class ProtocolError(RuntimeError):
    """A malformed, oversized, or truncated frame on the wire."""


# ------------------------------------------------------------------- framing
def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    data = json.dumps(payload, default=str).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or None on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; None on clean EOF (peer closed between frames)."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    data = _recv_exact(sock, length)
    if data is None:
        raise ProtocolError("connection closed between length and payload")
    try:
        frame = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict) or "type" not in frame:
        raise ProtocolError(f"frame is not a typed object: {frame!r:.80}")
    return frame


def parse_address(spec: str) -> tuple[str, int]:
    """``"HOST:PORT"`` to a bindable/connectable address (port 0 = ephemeral)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"coordinator address must be HOST:PORT, got {spec!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"coordinator port must be an integer, got {port!r}") from None
    if not 0 <= port_num <= 65535:
        raise ValueError(f"coordinator port out of range: {port_num}")
    return host, port_num


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
    import importlib

    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ProtocolError(f"function reference {ref!r} resolved to non-callable {obj!r}")
    return obj


def _required(payload: Any, what: str, *fields: str) -> list[Any]:
    """The named fields of a wire payload; a missing one is a :class:`ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} payload is not an object: {payload!r:.80}")
    try:
        return [payload[field] for field in fields]
    except KeyError as exc:
        raise ProtocolError(f"{what} payload lacks required field {exc.args[0]!r}") from None


_ABSENT = object()


def _typed(payload: dict[str, Any], what: str, field: str, convert: Callable, default=_ABSENT):
    """``convert(payload[field])``; a rejected value is a :class:`ProtocolError` naming the field."""
    value = payload.get(field, default)
    if value is _ABSENT:
        raise ProtocolError(f"{what} payload lacks required field {field!r}")
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError):
        raise ProtocolError(f"{what} field {field!r} is wrong-typed: {value!r:.80}") from None


def _optional_object(value: Any) -> dict[str, Any] | None:
    """``None``/empty, or a JSON object: the shape of labels and heartbeat summaries."""
    if value and not isinstance(value, dict):
        raise TypeError(f"not an object: {value!r:.80}")
    return value or None


def _objects(frame: dict[str, Any], field: str) -> list[dict[str, Any]]:
    """A frame field that must be a list of JSON objects (absent reads as empty)."""
    rows = frame.get(field, [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ProtocolError(f"frame field {field!r} is not a list of objects: {rows!r:.80}")
    return rows


def job_from_wire(payload: dict[str, Any]) -> Job:
    """Inverse of :func:`job_to_wire` (imports the job function)."""
    name, fn, params = _required(payload, "job", "name", "fn", "params")
    return Job(name=name, fn=resolve_job_fn(fn), params=decode_value(params))


def outcome_to_wire(outcome: JobOutcome) -> dict[str, Any]:
    """A job outcome as a frame payload; unencodable values become failures.

    The process-pool path moves values by pickle; the wire moves them through
    the checkpoint codec.  A value with no faithful JSON form cannot reach
    the coordinator intact, so it is reported as a failed outcome (the job
    quarantines) rather than silently degraded.
    """
    wire = {
        "name": outcome.name,
        "ok": outcome.ok,
        "error": outcome.error,
        "attempts": outcome.attempts,
        "timed_out": outcome.timed_out,
        "elapsed_s": outcome.elapsed_s,
    }
    if outcome.ok:
        try:
            wire["value"] = encode_value(outcome.value)
        except TypeError as exc:
            wire.update(ok=False, error=f"job value not wire-encodable: {exc}", value=None)
    else:
        wire["value"] = None
    return wire


def outcome_from_wire(payload: dict[str, Any]) -> JobOutcome:
    """Inverse of :func:`outcome_to_wire`."""
    name, ok = _required(payload, "outcome", "name", "ok")
    if not isinstance(name, str):
        raise ProtocolError(f"outcome field 'name' is wrong-typed: {name!r:.80}")
    return JobOutcome(
        name=name,
        ok=bool(ok),
        value=_typed(payload, "outcome", "value", decode_value, None),
        error=payload.get("error"),
        attempts=_typed(payload, "outcome", "attempts", int, 1),
        timed_out=bool(payload.get("timed_out", False)),
        elapsed_s=_typed(payload, "outcome", "elapsed_s", float, 0.0),
    )


def policy_to_wire(policy: RetryPolicy) -> dict[str, Any]:
    """A retry policy as plain fields (it is a frozen dataclass of scalars)."""
    return asdict(policy)


def policy_from_wire(payload: dict[str, Any]) -> RetryPolicy:
    """Inverse of :func:`policy_to_wire`."""
    return RetryPolicy(**payload)


def registry_to_wire(registry: MetricsRegistry) -> list[dict[str, Any]]:
    """A worker registry's full state, mergeable on the coordinator side."""
    rows: list[dict[str, Any]] = []
    for name, labels, kind, obj in registry:
        row: dict[str, Any] = {"name": name, "labels": labels, "kind": kind}
        if kind == "counter":
            row.update(value=obj.value, events=obj.events)
        elif kind == "gauge":
            row.update(value=obj.value)
        else:  # histogram
            row.update(
                bounds=list(obj.bounds),
                counts=list(obj.counts),
                count=obj.count,
                sum=obj.sum,
                # +-inf round-trips through python json; encode defensively
                min=None if obj.count == 0 else obj.min,
                max=None if obj.count == 0 else obj.max,
            )
        rows.append(row)
    return rows


def registry_from_wire(rows: list[dict[str, Any]]) -> MetricsRegistry:
    """Rebuild a registry from :func:`registry_to_wire` rows (for ``merge``)."""
    registry = MetricsRegistry()
    for row in rows:
        name, kind = _required(row, "registry row", "name", "kind")
        what = f"registry row {name!r:.80}"
        decode = partial(_typed, row, what)
        try:
            labels = decode("labels", _optional_object, None)
            if kind == "counter":
                counter = registry.counter(name, labels)
                counter.value, counter.events = decode("value", float), decode("events", int)
            elif kind == "gauge":
                registry.gauge(name, labels).set(decode("value", float))
            else:
                hist: Histogram = registry.histogram(
                    name, buckets=decode("bounds", tuple), labels=labels
                )
                hist.counts = decode("counts", lambda v: [int(c) for c in v])
                hist.count, hist.sum = decode("count", int), decode("sum", float)
                hist.min = decode("min", lambda v: float("inf") if v is None else float(v), None)
                hist.max = decode("max", lambda v: float("-inf") if v is None else float(v), None)
        except (TypeError, ValueError) as exc:  # an unhashable name; a kind or bounds it rejects
            raise ProtocolError(f"{what} is malformed: {exc}") from None
    return registry


# ------------------------------------------------------------- coordinator
@dataclass
class WorkerHandle:
    """Coordinator-side state of one connected worker."""

    wid: int
    host: str
    pid: int
    sock: socket.socket
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    last_heard: float = field(default_factory=time.monotonic)
    jobs_done: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: jobs handed to this worker and not yet answered, by name — at most two
    #: chunks' worth, since a worker pulls its next chunk before it reports
    held: dict[str, Job] = field(default_factory=dict)
    alive: bool = True

    @property
    def label(self) -> str:
        return f"{self.host}/{self.pid}"


class Coordinator:
    """Serve one plan's job queue to pull-based TCP workers.

    The coordinator is passive about scheduling: workers ask (``next``), it
    answers with a guided-size chunk, an ``idle`` backoff hint, or
    ``shutdown``.  It owns the queue of jobs not handed out and which jobs
    each worker holds (``queue_lock``); what is *settled* it reads from the
    ``driver``, whose ``settle`` (values, checkpoint, registry merge, flight
    ingest) it calls under ``lock`` — so handler threads never race in the
    driver, and a pull, which takes only ``queue_lock``, never waits for a
    settle.  ``lock`` is never acquired while ``queue_lock`` is held.
    """

    def __init__(
        self,
        driver: PlanDriver,
        policy: RetryPolicy,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        chunks_per_worker: int = 4,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        max_job_requeues: int = 3,
    ) -> None:
        self.driver = driver
        self.plan = driver.plan
        self.policy = policy
        self.pending: deque[Job] = deque(driver.remaining())
        self.chunks_per_worker = chunks_per_worker
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_job_requeues = max_job_requeues
        self._host, self._port = host, port
        self.lock = threading.RLock()  # the driver: settle, quarantine, respawns, failure
        self.queue_lock = threading.RLock()  # pending, workers, what each worker holds
        self.done = threading.Event()
        self._check_done()  # a fully resumed plan has nothing to serve
        self.failure: JobError | None = None
        self.workers: dict[int, WorkerHandle] = {}
        self.jobs_stolen = 0
        self._next_wid = 0
        self._requeues: dict[str, int] = {}
        self._previous_owner: dict[str, int] = {}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handler_threads: list[threading.Thread] = []
        self._stopping = False

    # ------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port resolved after :meth:`start`."""
        return self._host, self._port

    def start(self) -> tuple[str, int]:
        """Bind, listen, and begin accepting workers; returns the address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="drs-coordinator-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        """Close the listener and every worker socket; join handler threads."""
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self.queue_lock:
            handles = list(self.workers.values())
        for handle in handles:
            try:
                handle.sock.close()
            except OSError:
                pass
        for thread in self._handler_threads:
            thread.join(timeout=2.0)

    def broadcast_shutdown(self) -> None:
        """Tell every connected worker to exit after its current frame."""
        with self.queue_lock:
            handles = [h for h in self.workers.values() if h.alive]
        for handle in handles:
            try:
                with handle.send_lock:
                    send_frame(handle.sock, {"type": "shutdown"})
            except OSError:
                pass

    # --------------------------------------------------------------- serving
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_worker, args=(conn,), name="drs-coordinator-worker", daemon=True
            )
            self._handler_threads.append(thread)
            thread.start()

    def _serve_worker(self, conn: socket.socket) -> None:
        handle: WorkerHandle | None = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self.heartbeat_timeout_s)
            hello = recv_frame(conn)
            if hello is None or hello.get("type") != "hello":
                conn.close()
                return
            handle = self._register(conn, hello)
            with handle.send_lock:
                send_frame(
                    conn,
                    {
                        "type": "welcome",
                        "protocol": PROTOCOL_VERSION,
                        "worker": handle.wid,
                        "experiment": self.plan.experiment,
                        "seed": self.plan.seed,
                        "policy": policy_to_wire(self.policy),
                        "heartbeat_interval_s": self.heartbeat_interval_s,
                    },
                )
            while not self._stopping:
                frame = recv_frame(conn)
                if frame is None:
                    break
                handle.last_heard = time.monotonic()
                kind = frame.get("type")
                if kind == "heartbeat":
                    continue
                if kind == "next":
                    self._answer_next(handle)
                elif kind == "chunk_done":
                    self._absorb_chunk(handle, frame)
                elif kind == "job_error":
                    self._record_failure(frame)
                elif kind == "goodbye":
                    self._worker_gone(handle, reason="left")
                    return
        except (ProtocolError, OSError, socket.timeout):
            pass
        finally:
            if handle is not None and handle.alive:
                self._worker_gone(handle, reason="disconnect")
            try:
                conn.close()
            except OSError:
                pass

    def alive_workers(self) -> int:
        """How many workers are connected right now."""
        with self.queue_lock:
            return sum(1 for w in self.workers.values() if w.alive)

    def _register(self, conn: socket.socket, hello: dict[str, Any]) -> WorkerHandle:
        with self.queue_lock:
            self._next_wid += 1
            handle = WorkerHandle(
                wid=self._next_wid,
                host=str(hello.get("host", "?")),
                pid=int(hello.get("pid", 0)),
                sock=conn,
            )
            self.workers[handle.wid] = handle
            active = self.alive_workers()
        self.driver.emit(
            "worker.join",
            pid=handle.pid,
            worker=handle.wid,
            host=handle.host,
            workers=active,
        )
        return handle

    def _answer_next(self, handle: WorkerHandle) -> None:
        with self.queue_lock:
            if self.failure is not None or self.done.is_set() or not handle.alive:
                reply: dict[str, Any] = {"type": "shutdown"}
            elif self.pending:
                chunk = self._take_chunk(handle)
                reply = {"type": "chunk", "jobs": [job_to_wire(job) for job in chunk]}
            elif not self.driver.unsettled:
                reply = {"type": "shutdown"}
            else:
                # chunks outstanding (this worker's unreported one included):
                # poll again shortly — if their worker dies, the requeued jobs
                # are this worker's to steal
                reply = {"type": "idle", "wait_s": 0.05}
        with handle.send_lock:
            send_frame(handle.sock, reply)
        if reply["type"] == "chunk":
            self._sample_scheduler()

    def _take_chunk(self, handle: WorkerHandle) -> list[Job]:
        """Pop a guided-size chunk for ``handle`` (caller holds ``queue_lock``)."""
        # a spawned fleet counts in full from the first pull: workers still
        # importing are about to ask (driver.workers is 0 for an external fleet)
        fleet = max(self.alive_workers(), self.driver.workers)  # >= 1: the asker is alive
        size = max(1, math.ceil(len(self.pending) / (self.chunks_per_worker * fleet)))
        chunk = [self.pending.popleft() for _ in range(min(size, len(self.pending)))]
        for job in chunk:
            handle.held[job.name] = job
            previous = self._previous_owner.pop(job.name, None)
            if previous is not None and previous != handle.wid:
                self.jobs_stolen += 1
                self.driver.emit(
                    "job.stolen",
                    job=job.name,
                    pid=handle.pid,
                    worker=handle.wid,
                    from_worker=previous,
                )
            self.driver.emit("job.submitted", job=job.name, pid=handle.pid, worker=handle.wid)
        return chunk

    def _absorb_chunk(self, handle: WorkerHandle, frame: dict[str, Any]) -> None:
        # decode first: a malformed frame must leave the jobs with their worker,
        # so that the disconnect it causes requeues them
        outcomes = [outcome_from_wire(payload) for payload in _objects(frame, "outcomes")]
        registry = registry_from_wire(_objects(frame, "registry"))
        heartbeat = _typed(frame, "chunk_done", "heartbeat", _optional_object, None)
        flight = _objects(frame, "flight")
        wall_s = _typed(frame, "chunk_done", "wall_s", float, 0.0)
        cpu_s = _typed(frame, "chunk_done", "cpu_s", float, 0.0)
        with self.queue_lock:
            # exactly the names answered leave the worker's hands; anything
            # else it holds (the chunk it pulled before reporting) stays
            handle.jobs_done += sum(
                handle.held.pop(outcome.name, None) is not None for outcome in outcomes
            )
            handle.wall_s += wall_s
            handle.cpu_s += cpu_s
        with self.lock:
            self.driver.settle(outcomes, registry, heartbeat, flight)
            self._check_done()
        self._sample_scheduler()

    def _record_failure(self, frame: dict[str, Any]) -> None:
        """A fail-fast worker reported a job failure: stop the whole plan."""
        with self.lock:
            if self.failure is None:
                self.failure = JobError(
                    str(frame.get("experiment", self.plan.experiment)),
                    str(frame.get("job", "?")),
                    str(frame.get("cause", "job failed on a distributed worker")),
                )
            self.done.set()

    def _worker_gone(self, handle: WorkerHandle, reason: str) -> None:
        """Retire a worker; requeue (or quarantine) whatever it still held."""
        with self.queue_lock:
            if not handle.alive:
                return
            handle.alive = False
            held, handle.held = handle.held, {}
            requeued = 0
            poisoned: list[Job] = []
            for job in held.values():
                if job.name not in self.driver.unsettled:
                    continue
                self._requeues[job.name] = self._requeues.get(job.name, 0) + 1
                if self._requeues[job.name] > self.max_job_requeues:
                    poisoned.append(job)
                    continue
                self._previous_owner[job.name] = handle.wid
                self.pending.appendleft(job)
                requeued += 1
            active = self.alive_workers()
        if poisoned:
            with self.lock:
                for job in poisoned:
                    self._poison_job(job)
                self._check_done()
        self.driver.emit(
            "worker.leave",
            pid=handle.pid,
            worker=handle.wid,
            host=handle.host,
            reason=reason,
            jobs=handle.jobs_done,
            requeued=requeued,
            workers=active,
        )
        try:
            handle.sock.close()
        except OSError:
            pass

    def _poison_job(self, job: Job) -> None:
        """A job that keeps killing its workers: quarantine or fail the plan (under ``lock``)."""
        error = (
            f"workers died {self._requeues[job.name]} times while running this job "
            f"(requeue budget {self.max_job_requeues})"
        )
        if not self.policy.quarantine:
            if self.failure is None:
                self.failure = JobError(self.plan.experiment, job.name, error)
            self.done.set()
            return
        self.driver.quarantine(job.name, error)

    def _check_done(self) -> None:
        if not self.driver.unsettled:
            self.done.set()

    def expire_stale_workers(self) -> None:
        """Heartbeat-deadline sweep; the executor's watchdog calls this."""
        now = time.monotonic()
        with self.queue_lock:
            stale = [
                w
                for w in self.workers.values()
                if w.alive and now - w.last_heard > self.heartbeat_timeout_s
            ]
        for handle in stale:
            self._worker_gone(handle, reason="heartbeat-timeout")

    def _sample_scheduler(self) -> None:
        with self.queue_lock:
            busy = sum(1 for w in self.workers.values() if w.alive and w.held)
            alive = self.alive_workers()
        self.driver.sample_scheduler(busy, alive)

    # ------------------------------------------------------------- reporting
    def host_attribution(self) -> dict[str, dict[str, Any]]:
        """Manifest block: per-worker host, pid, jobs, wall/CPU seconds."""
        with self.queue_lock:
            return {
                str(handle.wid): {
                    "host": handle.host,
                    "pid": handle.pid,
                    "jobs": handle.jobs_done,
                    "wall_s": round(handle.wall_s, 6),
                    "cpu_s": round(handle.cpu_s, 6),
                }
                for handle in sorted(self.workers.values(), key=lambda w: w.wid)
            }


# ---------------------------------------------------------------- executor
class DistributedExecutor:
    """Run a plan as the coordinator of a TCP worker fleet.

    ``spawn_workers`` local ``drs-worker`` subprocesses are launched against
    the bound address (the ``--jobs N`` analogue); with ``spawn_workers=0``
    the coordinator waits for external workers to join — start them anywhere
    that can reach the address with ``drs-worker --coordinator HOST:PORT``.
    Spawned workers that die with jobs still pending are replaced, up to
    ``max_worker_respawns`` total, mirroring the process-pool respawn
    budget.  Results are byte-identical to serial for any fleet history.
    """

    name = "distributed"

    def __init__(
        self,
        coordinator: str | None = None,
        spawn_workers: int = 0,
        policy: RetryPolicy | None = None,
        chunks_per_worker: int = 4,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        max_worker_respawns: int = 3,
        max_job_requeues: int = 3,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        if chunks_per_worker < 1:
            raise ValueError(f"chunks_per_worker must be >= 1, got {chunks_per_worker}")
        if heartbeat_timeout_s <= heartbeat_interval_s:
            raise ValueError("heartbeat_timeout_s must exceed heartbeat_interval_s")
        self.bind_host, self.bind_port = parse_address(coordinator or "127.0.0.1:0")
        self.spawn_workers = spawn_workers
        self.workers = max(spawn_workers, 1)
        self.policy = policy
        self.chunks_per_worker = chunks_per_worker
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_worker_respawns = max_worker_respawns
        self.max_job_requeues = max_job_requeues
        #: the bound address of the last run's coordinator (host, port)
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------ subprocesses
    def _spawn_worker(self, address: tuple[str, int], respawn: bool) -> subprocess.Popen:
        env = dict(os.environ)
        if respawn:
            # a replacement must not re-trigger the crash injection, or a
            # crash-looping fleet would burn the whole respawn budget on it
            env.pop(WORKER_CRASH_ENV, None)
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.engine.worker",
                "--coordinator",
                f"{address[0]}:{address[1]}",
                "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    # ------------------------------------------------------------------- run
    def run(self, plan: JobPlan, checkpoint: Checkpoint | None = None) -> PlanExecution:
        """Coordinate the plan across the worker fleet; values match serial."""
        return PlanDriver(plan, checkpoint, self.name, self.spawn_workers).run(self._dispatch)

    def _dispatch(self, driver: PlanDriver) -> dict[str, int]:
        server = Coordinator(
            driver,
            self.policy if self.policy is not None else FAIL_FAST,
            host=self.bind_host,
            port=self.bind_port,
            chunks_per_worker=self.chunks_per_worker,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            max_job_requeues=self.max_job_requeues,
        )
        spawned: list[subprocess.Popen] = []
        try:
            self.address = server.start()
            if self.spawn_workers:
                spawned = [
                    self._spawn_worker(self.address, respawn=False)
                    for _ in range(self.spawn_workers)
                ]
            elif driver.unsettled:
                print(
                    f"[distributed] waiting for workers: "
                    f"drs-worker --coordinator {self.address[0]}:{self.address[1]}",
                    file=sys.stderr,
                    flush=True,
                )
            while not server.done.wait(timeout=0.1):
                server.expire_stale_workers()
                self._keep_fleet_alive(server, spawned)
        finally:
            # every chunk_done that arrived is already settled (handler
            # threads settle as frames land); stop serving and let go of the
            # fleet, whether the plan finished, failed, or was interrupted
            server.broadcast_shutdown()
            server.stop()
            driver.hosts = server.host_attribution()
            driver.workers = self.workers = max(self.spawn_workers, len(driver.hosts), 1)
            for proc in spawned:
                if proc.poll() is None:
                    proc.terminate()
            for proc in spawned:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
        if server.failure is not None:
            raise server.failure
        return {
            "pool_respawns": driver.respawns,
            "stolen": server.jobs_stolen,
            "workers": len(driver.hosts),
        }

    def _keep_fleet_alive(self, server: Coordinator, spawned: list[subprocess.Popen]) -> None:
        """Replace dead spawned workers while jobs remain, within the budget."""
        driver = server.driver
        for i, proc in enumerate(spawned):
            if proc.poll() is None:
                continue
            with server.lock:
                if not driver.unsettled or server.failure is not None:
                    return
                if driver.respawns >= self.max_worker_respawns:
                    if server.alive_workers() == 0 and all(
                        p.poll() is not None for p in spawned
                    ):
                        server.failure = JobError(
                            driver.plan.experiment,
                            "<fleet>",
                            f"all spawned workers died and the respawn budget "
                            f"({self.max_worker_respawns}) is exhausted",
                        )
                        server.done.set()
                    return
                driver.respawned(requeued=0, backend=self.name)
            spawned[i] = self._spawn_worker(self.address, respawn=True)
