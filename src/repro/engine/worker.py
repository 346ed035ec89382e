"""``repro worker``: one elastic member of a distributed worker fleet.

A worker dials a :class:`~repro.engine.distributed.Coordinator`
(``repro worker --coordinator HOST:PORT``), says ``hello`` and pulls job chunks
until told ``shutdown``; any number can join or leave at any point.  It reads
every frame through the coordinator's :data:`~repro.engine.coordinator.FRAMES`
table, and one it cannot decode ends it cleanly, with one ``repro worker:``
line naming the frame and the field.  Each chunk runs through
:func:`repro.engine.driver.run_chunk`, as on a process-pool worker, and what
it returns *is* the ``chunk_done`` frame.  A daemon thread beats so the
coordinator can tell a slow worker from a dead one.

The worker **pulls before it reports**: with chunk A run it asks for the
next chunk and only then sends ``chunk_done(A)``, so the coordinator settles
A while B runs here (if it dies, both are requeued).  ``TCP_NODELAY`` keeps
Nagle's algorithm from holding that ``chunk_done`` → ``next`` pair of writes
back until the coordinator's delayed ACK.  An ``idle`` answer is waited out
*on the socket*, so the ``shutdown`` broadcast ends the wait at once.
"""

from __future__ import annotations

import argparse
import os
import select
import signal
import socket
import sys
import threading
import time
from typing import Any

from repro.engine.coordinator import FRAMES, HANDSHAKE, JOINED, decode_frame
from repro.engine.distributed import (
    PROTOCOL_VERSION,
    WORKER_CRASH_ENV,
    ProtocolError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.engine.driver import run_chunk
from repro.engine.retry import JobError

__all__ = ["WorkerSession", "main"]

#: how long a worker keeps retrying the initial connect (the coordinator
#: may still be binding when spawned workers start)
CONNECT_RETRY_S = 20.0

#: a reply to ``next`` should be immediate; anything this quiet means the
#: coordinator is gone and the worker should exit rather than hang
REPLY_TIMEOUT_S = 60.0


class WorkerSession:
    """One worker's connection lifecycle against a coordinator address."""

    def __init__(self, host: str, port: int, *, quiet: bool = False) -> None:
        self.host = host
        self.port = port
        self.quiet = quiet
        self.sock: socket.socket | None = None
        #: the main thread and the heartbeat thread both write frames
        self._writing = threading.Lock()
        self._stop_heartbeats = threading.Event()
        self._chunks_started = 0
        crash = os.environ.get(WORKER_CRASH_ENV, "")
        self._crash_after = int(crash) if crash.isdigit() else None
        self.jobs_done = 0

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro worker {os.getpid()}] {message}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------ connection
    def connect(self) -> dict[str, Any]:
        """Dial the coordinator (with retry) and complete the handshake; the ``welcome``."""
        deadline = time.monotonic() + CONNECT_RETRY_S
        last_error: OSError | None = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection((self.host, self.port), timeout=5.0)
                break
            except OSError as exc:
                last_error = exc
                time.sleep(0.2)
        else:
            raise SystemExit(
                f"repro worker: cannot reach coordinator at {self.host}:{self.port}: {last_error}"
            )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(REPLY_TIMEOUT_S)
        self.sock = sock
        hello = {"protocol": PROTOCOL_VERSION, "host": socket.gethostname(), "pid": os.getpid()}
        send_frame(sock, {"type": "hello", **hello})
        reply = self._read(HANDSHAKE)
        if reply is None:
            raise ProtocolError("the coordinator closed the connection at the handshake")
        welcome = reply[1]
        if welcome["protocol"] != PROTOCOL_VERSION:
            raise ProtocolError(
                f"welcome field 'protocol' is {welcome['protocol']}, not {PROTOCOL_VERSION}"
            )
        self._say(
            f"joined {self.host}:{self.port} as worker {welcome['worker']} "
            f"for experiment {welcome['experiment']!r}"
        )
        return welcome

    def _read(self, state: str = JOINED) -> tuple[str, Any] | None:
        """The coordinator's next frame, checked against ``FRAMES``: (type, fields); None at EOF."""
        frame = recv_frame(self.sock)
        if frame is None:
            return None
        body = decode_frame(frame, "coordinator")
        if state not in FRAMES[frame["type"]].states:
            raise ProtocolError(f"a {frame['type']!r} frame is illegal while {state}")
        return frame["type"], body

    def _send(self, frame: dict[str, Any]) -> None:
        with self._writing:
            send_frame(self.sock, frame)

    def _pull(self) -> tuple[str, Any] | None:
        """Ask for work; the coordinator's answer (None: it closed the connection)."""
        self._send({"type": "next"})
        return self._read()

    def _heartbeat_loop(self, interval_s: float) -> None:
        while not self._stop_heartbeats.wait(interval_s):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                return

    # --------------------------------------------------------------- serving
    def serve(self) -> int | None:
        """Pull chunks until shutdown; the number of jobs run (None: a frame was refused)."""
        try:
            welcome = self.connect()
            threading.Thread(
                target=self._heartbeat_loop, args=(welcome["heartbeat_interval_s"],),
                name="repro-worker-heartbeat", daemon=True,
            ).start()
            reply = self._pull()
            while reply is not None:
                kind, body = reply
                if kind == "chunk":
                    done = self._run_chunk(welcome, body["jobs"])
                    # pull before report: the coordinator settles this chunk
                    # while the next one already runs here
                    reply = self._pull()
                    if done is not None:
                        self._send(done)
                elif kind == "idle":
                    # chunks are outstanding elsewhere; a frame from the
                    # coordinator (its shutdown broadcast) ends the wait at once
                    ready, _, _ = select.select([self.sock], [], [], body["wait_s"])
                    reply = self._read() if ready else self._pull()
                else:  # shutdown
                    self._send({"type": "goodbye"})
                    self._say(f"done ({self.jobs_done} jobs); leaving")
                    return self.jobs_done
            self._say("coordinator closed the connection")
        except ProtocolError as exc:
            print(f"repro worker: {exc}", file=sys.stderr, flush=True)
            return None
        except (ConnectionError, socket.timeout):
            self._say("lost the coordinator; exiting")
        finally:
            self._stop_heartbeats.set()
            if self.sock is not None:
                self.sock.close()
        return self.jobs_done

    def _run_chunk(self, welcome: dict[str, Any], jobs: list) -> dict[str, Any] | None:
        """Run one chunk; its ``chunk_done`` frame (None: a ``job_error`` went out instead)."""
        self._chunks_started += 1
        if self._crash_after is not None and self._chunks_started > self._crash_after:
            # fault injection: die *mid-chunk* — the coordinator has handed
            # these jobs out and must detect the death and requeue them
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            done = run_chunk(welcome["experiment"], welcome["seed"], jobs, welcome["policy"])
        except JobError as exc:
            # fail-fast policy: report which job sank the plan at once and
            # let the coordinator fail the run (our next "next" gets a shutdown)
            error = {"experiment": exc.experiment, "job": exc.job_name, "cause": exc.cause}
            self._send({"type": "job_error", **error})
            return None
        self.jobs_done += len(jobs)
        return done


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``repro worker``."""
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Join a `repro run --backend distributed` run as a worker.",
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        metavar="HOST:PORT",
        help="address the coordinator printed (or was started with)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress join/leave chatter")
    args = parser.parse_args(argv)
    try:
        host, port = parse_address(args.coordinator)
    except ValueError as exc:
        parser.error(str(exc))
    if port == 0:
        parser.error("a worker needs the coordinator's real port, not 0")
    session = WorkerSession(host, port, quiet=args.quiet)
    return 0 if session.serve() is not None else 1


if __name__ == "__main__":
    raise SystemExit(main())
