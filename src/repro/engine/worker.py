"""``drs-worker``: one elastic member of a distributed worker fleet.

A worker connects to a :class:`~repro.engine.distributed.Coordinator`
(``drs-worker --coordinator HOST:PORT``), introduces itself (host, pid),
and then pulls job chunks until the coordinator says ``shutdown`` — the
worker is pure pull, so any number can join or leave at any point of a
run without coordination among themselves.

Each chunk runs through :func:`repro.engine.driver.run_chunk` — the
**same** function process-pool workers execute — so retries, timeouts,
quarantine and private observability all behave identically, and what it
returns *is* the ``chunk_done`` frame: the wire form the pool pickles travels
over TCP unchanged, to the same ``ChunkResult.from_wire`` and the same
``PlanDriver.settle``.  A daemon thread sends heartbeat frames so the
coordinator can tell a slow worker from a dead one.

The worker **pulls before it reports**: with chunk A run it asks for the
next chunk, takes the answer, and only then sends ``chunk_done(A)`` — the
coordinator settles A (one checkpoint fsync, registry merge, flight ingest)
while B already runs here, so the worker never idles through its own settle.
It can therefore hold two chunks at once (A unreported, B running); if it
dies the coordinator requeues both.  The socket sets ``TCP_NODELAY``: the
``chunk_done`` → ``next`` pair is two writes with no read in between, which
Nagle's algorithm would hold back until the coordinator's delayed ACK.  An
``idle`` answer is waited out *on the socket*, so the coordinator's
``shutdown`` broadcast ends the wait at once instead of after a sleep.

Run it anywhere the coordinator's address is reachable and the repro
package (plus the experiment modules whose job functions it must import)
is installed.  On this machine, ``drs-experiments --backend distributed
--jobs N`` spawns N of these automatically.
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

from repro.engine.distributed import (
    PROTOCOL_VERSION,
    WORKER_CRASH_ENV,
    ProtocolError,
    job_from_wire,
    parse_address,
    policy_from_wire,
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
        self.send_lock = threading.Lock()
        self._stop_heartbeats = threading.Event()
        self._chunks_started = 0
        self._crash_after = self._parse_crash_injection()
        self.jobs_done = 0

    @staticmethod
    def _parse_crash_injection() -> int | None:
        raw = os.environ.get(WORKER_CRASH_ENV)
        if not raw:
            return None
        try:
            value = int(raw)
        except ValueError:
            return None
        return value if value >= 0 else None

    def _say(self, message: str) -> None:
        if not self.quiet:
            print(f"[drs-worker {os.getpid()}] {message}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------ connection
    def connect(self) -> dict[str, Any]:
        """Dial the coordinator (with retry) and complete the handshake."""
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
                f"drs-worker: cannot reach coordinator at {self.host}:{self.port}: {last_error}"
            )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(REPLY_TIMEOUT_S)
        self.sock = sock
        send_frame(
            sock,
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "host": socket.gethostname(),
                "pid": os.getpid(),
            },
        )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            raise SystemExit(f"drs-worker: bad handshake reply: {welcome!r}")
        if welcome.get("protocol") != PROTOCOL_VERSION:
            raise SystemExit(
                f"drs-worker: protocol mismatch (coordinator speaks "
                f"{welcome.get('protocol')}, this worker {PROTOCOL_VERSION})"
            )
        self._say(
            f"joined {self.host}:{self.port} as worker {welcome.get('worker')} "
            f"for experiment {welcome.get('experiment')!r}"
        )
        return welcome

    def _send(self, frame: dict[str, Any]) -> None:
        assert self.sock is not None
        with self.send_lock:
            send_frame(self.sock, frame)

    def _pull(self) -> dict[str, Any] | None:
        """Ask for work; the coordinator's answer (None: it closed the connection)."""
        self._send({"type": "next"})
        return recv_frame(self.sock)

    def _heartbeat_loop(self, interval_s: float) -> None:
        while not self._stop_heartbeats.wait(interval_s):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                return

    # --------------------------------------------------------------- serving
    def serve(self) -> int:
        """Pull chunks until shutdown; returns the number of jobs run."""
        welcome = self.connect()
        assert self.sock is not None
        experiment = str(welcome["experiment"])
        seed = int(welcome["seed"])
        policy = policy_from_wire(welcome["policy"])
        interval_s = float(welcome.get("heartbeat_interval_s", 1.0))
        beats = threading.Thread(
            target=self._heartbeat_loop, args=(interval_s,), name="drs-worker-heartbeat",
            daemon=True,
        )
        beats.start()
        try:
            reply = self._pull()
            while reply is not None:
                kind = reply.get("type")
                if kind == "chunk":
                    done = self._run_chunk(experiment, seed, policy, reply)
                    # pull before report: the coordinator settles this chunk
                    # while the next one already runs here
                    reply = self._pull()
                    if done is not None:
                        self._send(done)
                elif kind == "idle":
                    # chunks are outstanding elsewhere; a frame from the
                    # coordinator (its shutdown broadcast) ends the wait at once
                    wait_s = float(reply.get("wait_s", 0.05))
                    ready, _, _ = select.select([self.sock], [], [], wait_s)
                    reply = recv_frame(self.sock) if ready else self._pull()
                elif kind == "shutdown":
                    self._send({"type": "goodbye"})
                    self._say(f"done ({self.jobs_done} jobs); leaving")
                    return self.jobs_done
                else:
                    raise ProtocolError(f"unexpected frame from coordinator: {kind!r}")
            self._say("coordinator closed the connection")
            return self.jobs_done
        except (ConnectionError, socket.timeout):
            self._say("lost the coordinator; exiting")
            return self.jobs_done
        finally:
            self._stop_heartbeats.set()
            try:
                self.sock.close()
            except OSError:
                pass

    def _run_chunk(
        self, experiment: str, seed: int, policy, reply: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Run one chunk; its ``chunk_done`` frame (None: a ``job_error`` went out instead)."""
        self._chunks_started += 1
        if self._crash_after is not None and self._chunks_started > self._crash_after:
            # fault injection: die *mid-chunk* — the coordinator has handed
            # these jobs out and must detect the death and requeue them
            os.kill(os.getpid(), signal.SIGKILL)
        jobs = [job_from_wire(payload) for payload in reply["jobs"]]
        try:
            done = run_chunk(experiment, seed, jobs, policy)
        except JobError as exc:
            # fail-fast policy: report which job sank the plan at once and
            # let the coordinator fail the run (our next "next" gets a shutdown)
            self._send(
                {
                    "type": "job_error",
                    "experiment": exc.experiment,
                    "job": exc.job_name,
                    "cause": exc.cause,
                }
            )
            return None
        self.jobs_done += len(jobs)
        return done


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``drs-worker``."""
    parser = argparse.ArgumentParser(
        prog="drs-worker",
        description="Join a drs-experiments distributed run as a worker.",
    )
    parser.add_argument(
        "--coordinator",
        required=True,
        metavar="HOST:PORT",
        help="address the coordinator printed (or was started with)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress join/leave chatter on stderr"
    )
    args = parser.parse_args(argv)
    try:
        host, port = parse_address(args.coordinator)
    except ValueError as exc:
        parser.error(str(exc))
    if port == 0:
        parser.error("a worker needs the coordinator's real port, not 0")
    session = WorkerSession(host, port, quiet=args.quiet)
    session.serve()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
