"""Multi-host distributed execution: the TCP shell around the coordinator's core.

A :class:`DistributedExecutor` runs the coordinator of one plan, and any
number of workers join over TCP, pull job chunks and stream results back:
``repro worker`` processes on any host, and the executor's own local fleet,
which it forks from the coordinating process (Linux ``fork``), so each
starts with the interpreter, NumPy and the experiment's modules already
loaded.  Frames are length-prefixed JSON (a 4-byte big-endian length, then
one UTF-8 object) of the types in :data:`~repro.engine.coordinator.FRAMES`.
Workers trust their coordinator: run the protocol on a loopback or private
network.

Every decision is :class:`~repro.engine.coordinator.CoordinatorCore`'s; the
shell moves bytes on three kinds of thread.  A *reader* per connection
decodes each frame and posts it (EOF or reset posts ``"disconnect"``,
``HEARTBEAT_TIMEOUT_S`` of silence ``"heartbeat-timeout"``); the *loop* owns
the core and sends, closes and emits; the *settle* thread makes every
``PlanDriver`` call in order, so a pull is answered while another worker's
chunk is settled.  Values depend only on ``(root seed, experiment, job
name)``, so the CSVs are serial's whatever the fleet does.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import struct
import sys
import threading
from itertools import count
from typing import TYPE_CHECKING, Any

import repro.engine.driver as driver_module
from repro.engine.checkpoint import Checkpoint
from repro.engine.chunk import (
    ProtocolError,
    job_from_wire,
    job_to_wire,
    outcome_from_wire,
    outcome_to_wire,
)
from repro.engine.coordinator import PROTOCOL_VERSION, Call, Close, CoordinatorCore, Emit
from repro.engine.coordinator import Finished, Lost, Received, Send, Tick, decode_frame
from repro.engine.coordinator import policy_from_wire, policy_to_wire
from repro.engine.driver import PlanDriver, PlanExecution
from repro.engine.jobs import JobPlan
from repro.engine.retry import FAIL_FAST, RetryPolicy
from repro.obs.flightrecorder import set_flight_recorder
from repro.obs.progress import set_heartbeat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.process import BaseProcess

__all__ = [
    "PROTOCOL_VERSION", "ProtocolError", "send_frame", "recv_frame", "parse_address",
    "job_to_wire", "job_from_wire", "outcome_to_wire", "outcome_from_wire",  # from engine.chunk
    "policy_to_wire", "policy_from_wire", "Coordinator", "DistributedExecutor",
]

#: hard ceiling on one frame; a legitimate chunk result is orders smaller
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: how long a connection may stay silent before its worker is declared dead
#: (a dead *process* is detected at once, through its closed socket; this
#: catches hung workers and network partitions)
HEARTBEAT_TIMEOUT_S = 10.0

#: the loop looks at the spawned fleet after every event, and this often when idle
TICK_S = 0.1

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


# ------------------------------------------------------------- coordinator
class Coordinator:
    """The sockets, threads and forked local workers around a ``CoordinatorCore``:
    the thread that calls :meth:`step` after :meth:`start` is the loop, which owns :attr:`core`."""

    def __init__(
        self, driver: PlanDriver, policy: RetryPolicy, *, host: str = "127.0.0.1",
        port: int = 0, spawn: int = 0,
    ) -> None:
        self.driver = driver
        self.core = CoordinatorCore(driver.plan, driver.remaining(), policy, driver.workers)
        self.address = (host, port)
        self.spawn = spawn
        #: the local workers this coordinator forked and has not seen exit
        self.fleet: list[BaseProcess] = []
        #: every open connection's socket, by connection id
        self.socks: dict[int, socket.socket] = {}
        self.events: queue.SimpleQueue = queue.SimpleQueue()
        self.calls: queue.SimpleQueue = queue.SimpleQueue()
        self._listener: socket.socket | None = None
        self._readers: list[threading.Thread] = []
        self._settler = threading.Thread(
            target=self._settle, name="drs-coordinator-settle", daemon=True
        )

    def start(self) -> tuple[str, int]:
        """Bind, listen, fork the fleet, start accepting and settling; the bound address.

        The fleet forks while this process has no thread of its own yet; its
        workers' connections wait in the listen backlog until the accept
        thread starts.
        """
        self._listener = socket.create_server(self.address, backlog=64)
        self.address = (self.address[0], self._listener.getsockname()[1])
        self.fleet = [self._spawn(respawn=False) for _ in range(self.spawn)]
        threading.Thread(
            target=self._accept, args=(self._listener,), name="drs-coordinator-accept", daemon=True
        ).start()
        self._settler.start()
        return self.address

    def _accept(self, listener: socket.socket) -> None:
        for conn in count(1):
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # listener closed
            self.socks[conn] = sock
            reader = threading.Thread(
                target=self._read, args=(conn, sock), name="drs-coordinator-reader", daemon=True
            )
            self._readers.append(reader)
            reader.start()

    def _read(self, conn: int, sock: socket.socket) -> None:
        lost = Lost(conn)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(HEARTBEAT_TIMEOUT_S)
            while (frame := recv_frame(sock)) is not None:
                self.events.put(Received(conn, frame["type"], decode_frame(frame, "worker")))
        except socket.timeout:
            lost = Lost(conn, "heartbeat-timeout")
        except ProtocolError as exc:
            lost = Lost(conn, why=str(exc))
        except OSError:
            pass
        finally:
            self.events.put(lost)

    def _settle(self) -> None:
        while (call := self.calls.get()) is not None:
            refused = None
            try:
                getattr(self.driver, call.method)(*call.args, **(call.fields or {}))
            except ValueError as exc:  # rows of another kind or other bounds than the run holds
                refused = str(exc)
            except Exception as exc:  # the run cannot go on: the loop raises it
                self.events.put(exc)
                continue
            if call.ticket is not None:
                self.events.put(Finished(call.ticket, refused))

    # ------------------------------------------------------------------ loop
    def step(self) -> bool:
        """Take one event (or none within ``TICK_S``) through the core; False after :meth:`stop`."""
        try:
            event = self.events.get(timeout=TICK_S)
        except queue.Empty:
            event = ()  # none: only the fleet is looked at
        if event is None:  # stop()
            return False
        if isinstance(event, Exception):
            raise event
        if event:
            self._apply(self.core.handle(event))
        running = [proc for proc in self.fleet if proc.exitcode is None]
        exited, self.fleet = len(self.fleet) - len(running), running
        self._apply(self.core.handle(Tick(exited, len(running))))
        return True

    def stop(self) -> None:
        """Make the loop's next :meth:`step` return False (callable from any thread)."""
        self.events.put(None)

    def _apply(self, effects: list) -> None:
        for effect in effects:
            match effect:
                case Send(conn, frame):
                    self._send(conn, frame)
                case Close(conn, why):
                    if why:
                        print(f"[distributed] dropping {why}", file=sys.stderr, flush=True)
                    if self._hang_up(conn):
                        # lost now, not when its reader notices: what the worker
                        # held is requeued before the next frame is served
                        self._apply(self.core.handle(Lost(conn)))
                case Emit(kind, fields):
                    self.driver.emit(kind, **fields)
                case Call(method="respawned"):
                    self.fleet.append(self._spawn(respawn=True))
                    self.calls.put(effect)
                case Call():
                    self.calls.put(effect)

    def _hang_up(self, conn: int) -> bool:
        """Close ``conn``'s socket; False if it was closed already."""
        if (sock := self.socks.pop(conn, None)) is None:
            return False
        try:  # the shutdown wakes a reader blocked on the socket with EOF
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
        return True

    def _send(self, conn: int, frame: dict[str, Any]) -> None:
        try:
            send_frame(self.socks[conn], frame)
        except (KeyError, OSError):
            pass  # gone: its reader reports the connection lost

    def _spawn(self, respawn: bool) -> BaseProcess:
        """Fork one local worker; a respawn forks from the loop while the other threads run."""
        import multiprocessing

        from repro.engine.worker import WorkerSession  # loaded once here, not in every child

        proc = multiprocessing.get_context("fork").Process(
            target=self._work, args=(WorkerSession, respawn), name="drs-worker"
        )
        proc.start()
        return proc

    def _work(self, session: type, respawn: bool) -> None:
        """The forked child: let go of the coordinator, then serve as a ``session`` worker.

        It starts from a fresh worker's state and touches no lock that the
        coordinator's reader and settle threads may have held at the fork.
        """
        if self._listener is not None:
            self._listener.close()
        for sock in list(self.socks.values()):
            sock.close()
        set_flight_recorder(None)
        set_heartbeat(None)
        driver_module._worker_announced = False
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        # new stdio objects: the old ones' buffer locks may be held forever here
        sys.stdout = open(os.devnull, "w")
        os.dup2(sys.stdout.fileno(), 1)
        sys.stderr = open(2, "w", buffering=1, errors="backslashreplace", closefd=False)
        if respawn:
            # a replacement must not re-trigger the crash injection, or a
            # crash-looping fleet would burn the whole respawn budget on it
            os.environ.pop(WORKER_CRASH_ENV, None)
        host, port = self.address
        sys.exit(0 if session(host, port, quiet=True).serve() is not None else 1)

    def close(self) -> None:
        """Tell every worker to exit, hang up, finish the driver calls made, stop the fleet."""
        for conn in self.core.conns:
            self._send(conn, {"type": "shutdown"})
        if self._listener is not None:
            try:  # the shutdown ends the accept thread's accept(); a close alone
                # leaves it blocked there, still listening
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        for conn in list(self.socks):
            self._hang_up(conn)
        for reader in self._readers:
            reader.join(timeout=2.0)
        if self._settler.is_alive():
            self.calls.put(None)
            self._settler.join()
        for proc in self.fleet:
            proc.terminate()
        for proc in self.fleet:
            proc.join(5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()


# ---------------------------------------------------------------- executor
class DistributedExecutor:
    """Run a plan as the coordinator of a TCP worker fleet.

    ``spawn_workers`` local workers (the ``--jobs N`` analogue) are forked
    from this process and dial the bound address, and are replaced when
    they die within the core's respawn budget; with ``spawn_workers=0`` the
    coordinator waits for ``repro worker --coordinator HOST:PORT`` to join
    from anywhere.
    """

    name = "distributed"

    def __init__(
        self, coordinator: str | None = None, spawn_workers: int = 0,
        policy: RetryPolicy | None = None,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError(f"spawn_workers must be >= 0, got {spawn_workers}")
        self.bind_host, self.bind_port = parse_address(coordinator or "127.0.0.1:0")
        self.spawn_workers = spawn_workers
        self.workers = max(spawn_workers, 1)
        self.policy = policy
        #: the bound address of the last run's coordinator (host, port)
        self.address: tuple[str, int] | None = None

    def run(self, plan: JobPlan, checkpoint: Checkpoint | None = None) -> PlanExecution:
        """Coordinate the plan across the worker fleet; values match serial."""
        return PlanDriver(plan, checkpoint, self.name, self.spawn_workers).run(self._dispatch)

    def _dispatch(self, driver: PlanDriver) -> dict[str, int]:
        server = Coordinator(
            driver,
            self.policy if self.policy is not None else FAIL_FAST,
            host=self.bind_host,
            port=self.bind_port,
            spawn=self.spawn_workers,
        )
        try:
            self.address = server.start()
            if not self.spawn_workers and driver.unsettled:
                print(
                    f"[distributed] waiting for workers: "
                    f"repro worker --coordinator {self.address[0]}:{self.address[1]}",
                    file=sys.stderr,
                    flush=True,
                )
            while not server.core.done:
                server.step()
        finally:
            # every settle the core asked for runs before close() returns; stop
            # serving and let go of the fleet, whether the plan finished,
            # failed, or was interrupted
            server.close()
            driver.hosts = server.core.host_attribution()
            driver.workers = self.workers = max(self.spawn_workers, len(driver.hosts), 1)
        if server.core.failure is not None:
            raise server.core.failure
        return {
            "pool_respawns": driver.respawns,
            "stolen": server.core.jobs_stolen,
            "workers": len(driver.hosts),
        }
