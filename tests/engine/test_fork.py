"""The distributed backend's local workers are forks of the coordinating process.

A forked worker starts with everything the coordinator has loaded, so it
must first let go of what belongs to the coordinator: the listener and the
connection sockets, the flight recorder and heartbeat (whose locks a
coordinator thread may hold at the fork), and the process-wide
"announced" flag behind ``worker.spawn``.
"""

import os
import socket
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.engine import DistributedExecutor, Job, JobPlan, RetryPolicy, SerialExecutor
from repro.engine import driver as driver_module
from repro.engine.distributed import WORKER_CRASH_ENV, Coordinator
from repro.engine.driver import PlanDriver
from repro.obs import profiler
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder

FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base_s=0.001, jitter_frac=0.0)


def _draw(params, seed_seq):
    time.sleep(params.get("sleep_s", 0.0))
    return float(np.random.default_rng(seed_seq).random()) + params.get("offset", 0.0)


def _plan(n, **params):
    jobs = [Job(f"job/{i}", _draw, {"offset": float(i), **params}) for i in range(n)]
    return JobPlan(experiment="forktest", seed=5, jobs=jobs, reduce=lambda v: v)


def _cmdline(pid):
    return Path(f"/proc/{pid}/cmdline").read_bytes()


def _socket_inodes(pid):
    """The inodes of the sockets process ``pid`` holds open."""
    inodes = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue  # closed while listing
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


def _eventually(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


@pytest.fixture
def recorder():
    rec = FlightRecorder(None, experiment="forktest")
    set_flight_recorder(rec)
    yield rec
    set_flight_recorder(None)


def test_a_local_worker_is_forked_from_the_coordinator_not_exec_d(serving):
    plan = _plan(2, sleep_s=0.5)
    server = Coordinator(PlanDriver(plan, None, "distributed", 1), FAST_RETRY, spawn=1)
    _address, done = serving(server)
    (worker,) = server.fleet
    assert _cmdline(worker.pid) == _cmdline(os.getpid())
    assert done.wait(30.0), "the forked worker never finished the plan"


def test_a_forked_worker_holds_no_socket_of_the_coordinator(serving, monkeypatch):
    # the first worker dies on its second chunk, so its replacement is forked
    # from the loop while the listener and another connection are open
    monkeypatch.setenv(WORKER_CRASH_ENV, "1")
    plan = _plan(4, sleep_s=0.3)
    server = Coordinator(PlanDriver(plan, None, "distributed", 1), FAST_RETRY, spawn=1)
    address, done = serving(server)
    (first,) = server.fleet
    held = socket.create_connection(address, timeout=5.0)  # connected, never says hello
    try:
        _eventually(lambda: any(proc is not first for proc in server.fleet))
        (respawned,) = [proc for proc in server.fleet if proc is not first]
        # once it has joined, it has let go of what it inherited
        _eventually(lambda: respawned.pid in [w.pid for w in list(server.core.workers.values())])
        ours = {os.fstat(s.fileno()).st_ino for s in [server._listener, *server.socks.values()]}
        assert not _socket_inodes(respawned.pid) & ours
        assert done.wait(30.0), "the replacement never finished the plan"
    finally:
        held.close()


def test_a_worker_that_died_leaves_no_socket_behind(serving, monkeypatch):
    monkeypatch.setenv(WORKER_CRASH_ENV, "0")  # the first worker dies on its first chunk
    plan = _plan(4, sleep_s=0.2)
    server = Coordinator(PlanDriver(plan, None, "distributed", 1), FAST_RETRY, spawn=1)
    _address, done = serving(server)
    _eventually(lambda: 1 in server.core.workers and not server.core.workers[1].alive)
    # its reader reported it lost; the loop hangs its socket up, not close()
    _eventually(lambda: server.core.workers[1].conn not in server.socks)
    assert done.wait(30.0), "the replacement never finished the plan"


def test_once_the_coordinator_has_closed_a_connect_is_refused():
    executor = DistributedExecutor(spawn_workers=1)
    assert executor.run(_plan(2)).values == SerialExecutor().run(_plan(2)).values
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(executor.address, timeout=5.0).close()


def test_a_respawn_forked_while_the_recorder_lock_is_held_completes_its_chunk(
    recorder, monkeypatch
):
    monkeypatch.setenv(WORKER_CRASH_ENV, "0")  # the first worker dies on its first chunk
    fork = Coordinator._spawn

    def spawn_while_locked(self, respawn):
        if not respawn:
            return fork(self, respawn)
        locked, release = threading.Event(), threading.Event()

        def hold():
            with recorder._lock:
                locked.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        locked.wait()
        try:
            return fork(self, respawn)  # the child inherits the lock held
        finally:
            release.set()
            holder.join()

    monkeypatch.setattr(Coordinator, "_spawn", spawn_while_locked)
    execution = DistributedExecutor(spawn_workers=1, policy=FAST_RETRY).run(_plan(6))
    assert execution.pool_respawns >= 1
    assert execution.values == SerialExecutor().run(_plan(6)).values


def test_each_forked_worker_announces_itself_after_the_coordinator_ran_a_chunk(monkeypatch):
    monkeypatch.setattr(profiler, "install_profiling", lambda: None)
    monkeypatch.setattr(driver_module, "_worker_announced", False)
    driver_module.run_chunk("forktest", 5, [Job("here", _draw)], FAST_RETRY)
    assert driver_module._worker_announced  # this process has announced itself

    recorder = FlightRecorder(None, experiment="forktest")
    set_flight_recorder(recorder)
    try:
        execution = DistributedExecutor(spawn_workers=2).run(_plan(12, sleep_s=0.05))
    finally:
        set_flight_recorder(None)
    spawns = Counter(e["pid"] for e in recorder.drain() if e["kind"] == "worker.spawn")
    working = [host["pid"] for host in execution.hosts.values() if host["jobs"]]
    assert sorted(spawns) == sorted(working) and set(spawns.values()) == {1}
    assert os.getpid() not in spawns
