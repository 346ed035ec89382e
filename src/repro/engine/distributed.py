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

Length-prefixed JSON frames: a 4-byte big-endian length, then one UTF-8 JSON
object.  What the frames carry is declared in :mod:`repro.engine.chunk` (its
codecs are re-exported here): params and values go through the checkpoint
codec, job *functions* travel as ``"module:qualname"`` references resolved by
import on the worker (the module-level-function rule process pools already
impose), and a ``chunk_done`` is ``ChunkResult.to_wire()``, the very dict a
pool pickles.  Workers trust their coordinator — run the protocol on a
loopback or private network.  ``PROTOCOL_VERSION`` is checked both ways: the
coordinator refuses a ``hello`` naming another, the worker such a ``welcome``.

Scheduling
----------

**Workers pull**; there is no push or static partition.  Each pull takes
:func:`~repro.engine.chunk.guided_size` jobs — the rule the process pool
cuts its chunks by — with ``fleet`` the larger of the workers alive at that
instant and the workers the executor spawned, so the first spawned worker to
finish importing is not handed the share of a one-worker fleet.  A worker
pulls its next chunk *before* it reports the last (:mod:`repro.engine.worker`
says why, and why both ends set ``TCP_NODELAY``), so the coordinator tracks,
per worker, the *jobs handed to it and not yet answered*, by name — at most
two chunks' worth; a ``chunk_done`` removes exactly the names it answers.
Pulls are answered under a lock of their own: settles stay one at a time, but
a pull never waits behind another worker's settle.

A worker that misses its heartbeat deadline or drops its connection is
declared dead: whatever it still held is requeued and stolen by the next pull
(``job.stolen``).  A job whose workers keep dying exhausts a requeue budget
and is quarantined (or raises :class:`~repro.engine.retry.JobError` under a
fail-fast policy), like a poison job that keeps breaking a process pool.  A
``chunk_done`` that cannot be absorbed (a malformed field, registry rows the
run's registry refuses) is refused whole: nothing of it is recorded, and its
sender is dropped like a dead worker.  None of this affects values — every
job's stream is spawned from ``(root seed, experiment, job name)`` — so
serial, ``--jobs N`` and distributed runs produce byte-identical CSVs.

The coordinator emits ``worker.join`` / ``worker.leave`` / ``job.stolen``
events, and the final :class:`~repro.engine.driver.PlanExecution` carries
per-host attribution (host, pid, jobs, wall/CPU seconds per worker) that
``run_plan`` folds into the manifest under ``engine.hosts``.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.engine.checkpoint import Checkpoint
from repro.engine.chunk import (
    ChunkResult,
    ProtocolError,
    exactly,
    guided_size,
    job_from_wire,
    job_to_wire,
    outcome_from_wire,
    outcome_to_wire,
    typed,
)
from repro.engine.driver import PlanDriver, PlanExecution
from repro.engine.jobs import Job, JobPlan
from repro.engine.retry import FAIL_FAST, JobError, RetryPolicy

__all__ = [
    "PROTOCOL_VERSION", "ProtocolError", "send_frame", "recv_frame", "parse_address",
    "job_to_wire", "job_from_wire", "outcome_to_wire", "outcome_from_wire",  # from engine.chunk
    "policy_to_wire", "policy_from_wire", "Coordinator", "DistributedExecutor",
]

#: 2: ``chunk_done.registry`` is ``MetricsRegistry.snapshot()`` rows
PROTOCOL_VERSION = 2

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


# ---------------------------------------------------------------- handshake
def policy_to_wire(policy: RetryPolicy) -> dict[str, Any]:
    """A retry policy as plain fields (it is a frozen dataclass of scalars)."""
    return asdict(policy)


def policy_from_wire(payload: dict[str, Any]) -> RetryPolicy:
    """Inverse of :func:`policy_to_wire`; a field the policy lacks or refuses is a ProtocolError."""
    try:
        return RetryPolicy(**payload)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"policy payload is malformed: {exc}") from None


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
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        max_job_requeues: int = 3,
    ) -> None:
        self.driver = driver
        self.plan = driver.plan
        self.policy = policy
        self.pending: deque[Job] = deque(driver.remaining())
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
        except ProtocolError as exc:
            peer = f"{handle.host}/{handle.pid}" if handle is not None else "an unregistered peer"
            print(f"[distributed] dropping {peer}: {exc}", file=sys.stderr, flush=True)
        except (OSError, socket.timeout):
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
        host = typed(hello, "hello", "host", exactly(str), "?")
        pid = typed(hello, "hello", "pid", int, 0)
        theirs = typed(hello, "hello", "protocol", int, PROTOCOL_VERSION)  # unstated: taken as ours
        if theirs != PROTOCOL_VERSION:
            raise ProtocolError(f"hello field 'protocol' is {theirs}, not {PROTOCOL_VERSION}")
        with self.queue_lock:
            self._next_wid += 1
            handle = WorkerHandle(wid=self._next_wid, host=host, pid=pid, sock=conn)
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
        chunk = [self.pending.popleft() for _ in range(guided_size(len(self.pending), fleet))]
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
        # refused whole or absorbed whole: decoded first, merged first (by settle), released
        # last — a refused chunk stays in its worker's hands until the disconnect requeues it
        result = ChunkResult.from_wire(frame)
        with self.lock:
            try:
                self.driver.settle(result)
            except ValueError as exc:  # rows of another kind or other bounds than the run holds
                raise ProtocolError(f"chunk_done field 'registry' is refused: {exc}") from None
            with self.queue_lock:
                # exactly the names answered leave its hands; the chunk it pulled since stays
                handle.jobs_done += sum(
                    handle.held.pop(outcome.name, None) is not None for outcome in result.outcomes
                )
                handle.wall_s += result.wall_s
                handle.cpu_s += result.cpu_s
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
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        max_worker_respawns: int = 3,
        max_job_requeues: int = 3,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        if heartbeat_timeout_s <= heartbeat_interval_s:
            raise ValueError("heartbeat_timeout_s must exceed heartbeat_interval_s")
        self.bind_host, self.bind_port = parse_address(coordinator or "127.0.0.1:0")
        self.spawn_workers = spawn_workers
        self.workers = max(spawn_workers, 1)
        self.policy = policy
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
