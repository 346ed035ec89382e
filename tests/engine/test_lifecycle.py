"""One plan lifecycle on every backend: serial, process pool, distributed.

The three executors are transports under one :class:`PlanDriver`, so
everything that is not "where did the job run" must come out the same:
results and provenance, per-job flight events, derived gauges, what Ctrl-C
leaves behind.  Job functions are module-level because pool and
``repro worker`` processes import them by name (workers inherit pytest's
working directory, the repo root, so ``tests.engine.test_lifecycle``
resolves).
"""

import json
import os
import signal
import socket
import sys
import threading
import time
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    Checkpoint,
    DistributedExecutor,
    Job,
    JobPlan,
    ParallelExecutor,
    PlanInterrupted,
    RetryPolicy,
    SerialExecutor,
)
from repro.engine import chunk as chunk_module
from repro.engine import coordinator as coordinator_module
from repro.engine import distributed as distributed_module
from repro.engine.chunk import ChunkResult
from repro.engine.distributed import (
    PROTOCOL_VERSION,
    Coordinator,
    outcome_to_wire,
    recv_frame,
    send_frame,
)
from repro.engine.driver import PlanDriver
from repro.engine.retry import JobOutcome
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry, ensure_core_metrics, use_registry
from repro.obs.profiler import publish_mc_throughput
from repro.obs.progress import ProgressReporter, set_heartbeat

FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base_s=0.001, jitter_frac=0.0)

BACKENDS = {
    "serial": SerialExecutor,
    "pool2": partial(ParallelExecutor, workers=2),
    "distributed2": partial(DistributedExecutor, spawn_workers=2),
}
backends = pytest.mark.parametrize("backend", list(BACKENDS))


def _draw(params, seed_seq):
    # a fixed (iterations, wall) pair: every chunk's own rate gauge reads
    # 100000/s, so a sum over chunks is off by exactly the chunk count
    publish_mc_throughput(1000, 0.01)
    return float(np.random.default_rng(seed_seq).random()) + params.get("offset", 0.0)


def _flaky_once(params, seed_seq):
    marker = Path(params["marker"])
    if not marker.exists():
        marker.write_text("failed once")
        raise RuntimeError("transient failure")
    return _draw(params, seed_seq)


def _always_fails(params, seed_seq):
    raise RuntimeError("permanent failure")


def _always_kills(params, seed_seq):
    os._exit(1)


def _ctrl_c_once(params, seed_seq):
    """First run: SIGINT the coordinating process mid-plan; afterwards a plain draw.

    Waits for ``after`` checkpoint records first, so the interrupt always
    finds settled work to preserve, then outlives the signal's delivery —
    the plan cannot finish before the interrupt lands.
    """
    marker = Path(params["marker"])
    if marker.exists():
        return _draw(params, seed_seq)
    marker.write_text("interrupted once")
    checkpoint, deadline = Path(params["checkpoint"]), time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if checkpoint.exists() and len(checkpoint.read_text().splitlines()) >= params["after"]:
            break
        time.sleep(0.01)
    os.kill(params["pid"], signal.SIGINT)
    time.sleep(2.0)
    return _draw(params, seed_seq)


def _plan(jobs, experiment="lifecycle", seed=11):
    return JobPlan(experiment=experiment, seed=seed, jobs=jobs, reduce=lambda v: v)


class _Observed:
    """A run under its own registry, heartbeat collector and flight recorder."""

    def __init__(self):
        self.registry = ensure_core_metrics(MetricsRegistry())
        self.reporter = ProgressReporter("lifecycle", interval_s=1e12)
        self.recorder = FlightRecorder(None, experiment="lifecycle")
        self._events = []

    def __enter__(self):
        set_heartbeat(self.reporter)
        set_flight_recorder(self.recorder)
        self._scope = use_registry(self.registry)
        self._scope.__enter__()
        return self

    def __exit__(self, *exc_info):
        self._scope.__exit__(*exc_info)
        set_flight_recorder(None)
        set_heartbeat(None)

    def events(self, kind=None):
        self._events.extend(self.recorder.drain())
        return [e for e in self._events if kind is None or e["kind"] == kind]

    def job_events(self):
        """Multiset of (kind, job) over the per-job lifecycle events."""
        return Counter((e["kind"], e["job"]) for e in self.events() if "job" in e)


def _mixed_run(backend, root):
    """ok + retried + quarantined + resumed jobs, observed, on one backend."""
    root.mkdir()
    path = root / "lifecycle.checkpoint.jsonl"
    jobs = [Job(f"ok/{i}", _draw, {"offset": float(i)}) for i in range(6)]
    SerialExecutor().run(_plan(jobs[:2]), checkpoint=Checkpoint(path))  # to be resumed
    jobs.append(Job("flaky", _flaky_once, {"marker": str(root / "flaky")}))
    jobs.append(Job("doomed", _always_fails))
    with _Observed() as observed:
        execution = BACKENDS[backend](policy=FAST_RETRY).run(
            _plan(jobs), checkpoint=Checkpoint(path)
        )
    return execution, observed


@backends
def test_same_plan_same_execution_and_job_events(backend, tmp_path):
    reference, ref_observed = _mixed_run("serial", tmp_path / "reference")
    execution, observed = _mixed_run(backend, tmp_path / "run")

    assert execution.values == reference.values
    assert execution.attempts == reference.attempts
    assert execution.attempts["flaky"] == 2
    assert execution.quarantined == reference.quarantined == ["doomed"]
    assert execution.timed_out == reference.timed_out == []
    assert sorted(execution.resumed) == sorted(reference.resumed) == ["ok/0", "ok/1"]
    assert execution.job_seeds == reference.job_seeds
    assert observed.job_events() == ref_observed.job_events()
    assert observed.reporter.counts["jobs"] == 6  # every job this run executed
    assert observed.registry.counter("engine_jobs_quarantined_total").value == 1


@backends
def test_rate_gauge_is_the_ratio_of_the_merged_counters(backend):
    jobs = [Job(f"ok/{i}", _draw, {"offset": float(i)}) for i in range(8)]
    with _Observed() as observed:
        BACKENDS[backend]().run(_plan(jobs))
    registry = observed.registry
    total = registry.counter("mc_iterations_total").value
    wall = registry.counter("mc_wall_seconds_total").value
    assert total == 8000
    assert registry.gauge("mc_iterations_per_second").value == pytest.approx(total / wall)


@backends
def test_ctrl_c_checkpoints_settled_jobs_and_resume_completes(backend, tmp_path):
    path = tmp_path / "lifecycle.checkpoint.jsonl"

    def plan(marker):
        jobs = [Job(f"ok/{i}", _draw, {"offset": float(i)}) for i in range(7)]
        jobs.insert(3, Job("ctrl-c", _ctrl_c_once, {
            "marker": str(marker), "checkpoint": str(path), "after": 3, "pid": os.getpid(),
        }))
        return _plan(jobs)

    done_marker = tmp_path / "already-interrupted"
    done_marker.write_text("reference run: never interrupts")
    reference = SerialExecutor().run(plan(done_marker))

    with _Observed() as observed:
        with pytest.raises(PlanInterrupted) as excinfo:
            BACKENDS[backend]().run(plan(tmp_path / "marker"), checkpoint=Checkpoint(path))
    partial = excinfo.value.execution
    assert partial.interrupted and partial.backend == BACKENDS[backend]().name
    assert 3 <= len(partial.values) < 8 and "ctrl-c" not in partial.values
    persisted = Checkpoint(path)
    persisted.load(plan(done_marker))
    assert sorted(persisted.completed_jobs()) == sorted(partial.values)
    assert len(observed.events("plan.interrupted")) == 1
    assert not observed.events("plan.end")

    resumed = BACKENDS[backend]().run(plan(tmp_path / "marker"), checkpoint=Checkpoint(path))
    assert sorted(resumed.resumed) == sorted(partial.values)
    assert resumed.values == reference.values


def test_jobs_whose_workers_keep_dying_are_quarantined_everywhere(monkeypatch):
    """Death-quarantine and fleet respawns must reach every telemetry channel."""
    jobs = [Job(f"ok/{i}", _draw, {"offset": float(i)}) for i in range(3)]
    jobs.insert(1, Job("poison", _always_kills))
    # one worker: its death leaves nobody to steal the job, so finishing the
    # plan takes respawns however the schedule falls
    monkeypatch.setattr(coordinator_module, "MAX_JOB_REQUEUES", 1)
    monkeypatch.setattr(coordinator_module, "MAX_WORKER_RESPAWNS", 6)
    executor = DistributedExecutor(spawn_workers=1, policy=FAST_RETRY)
    with _Observed() as observed:
        execution = executor.run(_plan(jobs))

    assert execution.quarantined == ["poison"]
    assert sorted(execution.values) == ["ok/0", "ok/1", "ok/2"]
    assert observed.registry.counter("engine_jobs_quarantined_total").value == 1
    assert observed.reporter.counts["quarantined"] == 1
    assert observed.reporter.counts["jobs"] == observed.reporter.jobs_total == 4
    assert len(observed.events("job.quarantined")) == 1
    assert execution.pool_respawns >= 1
    assert (
        observed.registry.counter("engine_pool_respawns_total").value
        == len(observed.events("pool.respawn"))
        == execution.pool_respawns
    )


def test_a_worker_process_sets_itself_up_on_its_first_chunk_only(monkeypatch):
    """Profiling install and ``worker.spawn`` are per process, not per chunk."""
    from repro.engine import driver
    from repro.obs import profiler

    installs = []
    monkeypatch.setattr(profiler, "install_profiling", lambda: installs.append(1))
    monkeypatch.setattr(driver, "_worker_announced", False)
    spawns = []
    for i in range(3):
        result = ChunkResult.from_wire(
            driver.run_chunk("unit", 1, [Job(f"ok/{i}", _draw)], FAST_RETRY)
        )
        assert [o.ok for o in result.outcomes] == [True]
        spawns.append(sum(event["kind"] == "worker.spawn" for event in result.flight))
    assert installs == [1] and spawns == [1, 0, 0]


class _FakeWorker:
    """A hand-driven peer speaking the worker side of the frame protocol."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5.0)
        send_frame(self.sock, {"type": "hello", "protocol": PROTOCOL_VERSION, "host": "fake", "pid": 4242})
        assert recv_frame(self.sock)["type"] == "welcome"

    def pull(self):
        send_frame(self.sock, {"type": "next"})
        return recv_frame(self.sock)

    def chunk_done(self, outcomes):
        send_frame(self.sock, {"type": "chunk_done", "outcomes": outcomes})

    def close(self):
        self.sock.close()


@pytest.fixture
def chunks_per_worker(monkeypatch):
    """Set the one guided-size constant, for tests that count on a chunk's exact size."""
    return partial(monkeypatch.setattr, chunk_module, "CHUNKS_PER_WORKER")


@pytest.fixture
def coordinator(tmp_path, chunks_per_worker, serving):
    """A served three-job plan whose first pull hands out every job."""
    jobs = [Job(f"job/{i}", _draw, {"offset": float(i)}) for i in range(3)]
    chunks_per_worker(1)
    with _Observed() as observed:
        driver = PlanDriver(
            _plan(jobs), Checkpoint(tmp_path / "lifecycle.checkpoint.jsonl"), "distributed", 0
        )
        server = Coordinator(driver, FAST_RETRY)
        address, done = serving(server)
        worker = _FakeWorker(address)
        try:
            yield server, driver, worker, observed, done
        finally:
            worker.close()
            server.stop()


def _wire(name, ok=True, value=0.5):
    return outcome_to_wire(JobOutcome(name=name, ok=ok, value=value if ok else None))


class TestSettleValidatesOutsideOutcomes:
    def test_unknown_job_is_dropped_and_the_connection_survives(self, coordinator):
        server, driver, worker, observed, done = coordinator
        assert len(worker.pull()["jobs"]) == 3
        worker.chunk_done([_wire("ghost")])
        worker.chunk_done([_wire(f"job/{i}") for i in range(3)])
        assert done.wait(timeout=5.0), "the handler died on the unknown job"
        assert sorted(driver.values) == ["job/0", "job/1", "job/2"]
        dropped = observed.events("job.dropped")
        assert [(e["job"], e["reason"]) for e in dropped] == [("ghost", "unknown-job")]

    def test_late_duplicate_chunk_is_not_settled_twice(self, coordinator):
        server, driver, worker, observed, done = coordinator
        worker.pull()
        answer = [_wire("job/0", ok=False), _wire("job/1"), _wire("job/2")]
        worker.chunk_done(answer)
        assert done.wait(timeout=5.0)
        worker.chunk_done(answer)  # the requeued chunk's first owner, answering late
        assert worker.pull()["type"] == "shutdown"
        _eventually(lambda: len(observed.events("job.dropped")) == 3)  # the duplicate is settled
        assert driver.quarantined == ["job/0"]
        assert driver.attempts == {"job/0": 1, "job/1": 1, "job/2": 1}
        assert len(observed.events("checkpoint.write")) == 2
        assert observed.reporter.counts["jobs"] == 3
        dropped = observed.events("job.dropped")
        assert [e["reason"] for e in dropped] == ["already-settled"] * 3


def _eventually(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


def _finish_as_a_second_worker(server, reference):
    """A fresh fake worker pulls until shutdown, answering with the serial values."""
    second, pulled = _FakeWorker(server.address), []
    try:
        while (reply := second.pull())["type"] != "shutdown":
            assert reply["type"] == "chunk", "the second worker was left idle: the plan hangs"
            names = [job["name"] for job in reply["jobs"]]
            pulled += names
            second.chunk_done([_wire(name, value=reference[name]) for name in names])
    finally:
        second.close()
    return pulled


class TestWhatAWorkerHolds:
    """The coordinator tracks the jobs a worker holds by name, not one chunk slot."""

    def test_stray_chunk_done_then_disconnect_requeues_the_chunk(self, coordinator):
        # the stray answer used to clear the worker's chunk slot, so the
        # disconnect requeued nothing and every later pull was answered idle
        server, driver, worker, observed, done = coordinator
        reference = SerialExecutor().run(driver.plan).values
        assert len(worker.pull()["jobs"]) == 3
        worker.chunk_done([_wire("ghost")])
        worker.close()
        _eventually(lambda: observed.events("worker.leave"))
        (left,) = observed.events("worker.leave")
        assert left["reason"] == "disconnect" and left["requeued"] == 3

        assert sorted(_finish_as_a_second_worker(server, reference)) == sorted(reference)
        assert done.wait(timeout=5.0)
        assert driver.values == reference
        assert sorted(e["job"] for e in observed.events("job.stolen")) == sorted(reference)

    def test_a_hung_worker_is_declared_dead_by_its_heartbeat_timeout(
        self, coordinator, monkeypatch
    ):
        # a second detector used to watch the same silence and always lost the race
        # to the recv timeout, labelled "disconnect": "heartbeat-timeout" never appeared
        server, driver, worker, observed, done = coordinator
        monkeypatch.setattr(distributed_module, "HEARTBEAT_TIMEOUT_S", 0.5)
        hung = _FakeWorker(server.address)
        try:
            held = hung.pull()["jobs"]  # and then silence: no heartbeat, no EOF
            _eventually(lambda: observed.events("worker.leave"))
            (left,) = observed.events("worker.leave")
            assert left["reason"] == "heartbeat-timeout" and left["requeued"] == len(held) > 0
        finally:
            hung.close()

    def test_a_worker_that_pulled_twice_holds_two_chunks_and_loses_both(
        self, chunks_per_worker, serving
    ):
        jobs = [Job(f"job/{i}", _draw, {"offset": float(i)}) for i in range(6)]
        reference = SerialExecutor().run(_plan(jobs)).values
        chunks_per_worker(2)
        with _Observed() as observed:
            driver = PlanDriver(_plan(jobs), None, "distributed", 0)
            server = Coordinator(driver, FAST_RETRY)
            address, done = serving(server)
            greedy = _FakeWorker(address)
            try:
                first, second = greedy.pull(), greedy.pull()  # pull before report
                held = [job["name"] for job in first["jobs"] + second["jobs"]]
                assert len(first["jobs"]) == 3 and len(second["jobs"]) == 2
                (handle,) = server.core.workers.values()
                assert sorted(handle.held) == sorted(held)
                greedy.chunk_done([_wire(name, value=reference[name]) for name in held[:1]])
                _eventually(lambda: held[0] in driver.values)
                assert sorted(handle.held) == sorted(held[1:])  # exactly the answered name left
                greedy.close()  # dies holding the rest of both chunks
                _eventually(lambda: observed.events("worker.leave"))
                assert observed.events("worker.leave")[0]["requeued"] == 4
                _finish_as_a_second_worker(server, reference)
                assert done.wait(timeout=5.0)
            finally:
                greedy.close()
                server.stop()
        assert driver.values == reference
        assert sorted(e["job"] for e in observed.events("job.stolen")) == sorted(held[1:])
        assert sum(h["jobs"] for h in server.core.host_attribution().values()) == len(jobs)

    def test_a_pull_is_answered_while_another_workers_settle_is_blocked(
        self, monkeypatch, chunks_per_worker, serving
    ):
        chunks_per_worker(2)
        jobs = [Job(f"job/{i}", _draw, {"offset": float(i)}) for i in range(6)]
        driver = PlanDriver(_plan(jobs), None, "distributed", 0)
        settling, release, settle = threading.Event(), threading.Event(), driver.settle

        def blocked_settle(*args, **kwargs):
            settling.set()
            assert release.wait(timeout=10.0)
            return settle(*args, **kwargs)

        monkeypatch.setattr(driver, "settle", blocked_settle)
        server = Coordinator(driver, FAST_RETRY)
        worker = _FakeWorker(serving(server)[0])
        other = None
        try:
            assert len(worker.pull()["jobs"]) == 3
            worker.chunk_done([_wire("job/0")])
            assert settling.wait(timeout=5.0)
            other = _FakeWorker(server.address)  # joins and asks while the settle holds its lock
            assert other.pull()["type"] == "chunk"  # used to wait for the settle: a timeout
            assert not release.is_set()
        finally:
            release.set()
            worker.close()
            if other is not None:
                other.close()
            server.stop()

    def test_more_workers_than_cores_settle_every_job_exactly_once(self, tmp_path, serving):
        """Stress the three threads: six pull-before-report peers, a short switch interval."""
        jobs = [Job(f"job/{i}", _draw, {"offset": float(i)}) for i in range(240)]
        reference = SerialExecutor().run(_plan(jobs)).values
        path = tmp_path / "lifecycle.checkpoint.jsonl"
        errors = []

        def work(address):
            try:
                worker = _FakeWorker(address)
                reply = worker.pull()
                while reply["type"] != "shutdown":
                    names = [job["name"] for job in reply.get("jobs", [])]  # idle: none
                    reply = worker.pull()  # before reporting what is in hand
                    worker.chunk_done([_wire(name, value=reference[name]) for name in names])
                worker.close()
            except Exception as exc:  # surfaced below: a thread cannot fail the test itself
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _Observed() as observed:
                driver = PlanDriver(_plan(jobs), Checkpoint(path), "distributed", 0)
                server = Coordinator(driver, FAST_RETRY)
                address, done = serving(server)
                peers = [threading.Thread(target=work, args=(address,)) for _ in range(6)]
                try:
                    for peer in peers:
                        peer.start()
                    assert done.wait(timeout=60.0)
                    for peer in peers:
                        peer.join(timeout=30.0)
                        assert not peer.is_alive()
                finally:
                    server.stop()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert driver.values == reference and not driver.unsettled
        assert not observed.events("job.dropped")
        assert sorted(e["job"] for e in observed.events("checkpoint.write")) == sorted(reference)
        assert sorted(json.loads(line)["job"] for line in path.read_text().splitlines()) == sorted(
            reference
        )
        assert sum(h["jobs"] for h in server.core.host_attribution().values()) == len(jobs)
        assert not any(handle.held for handle in server.core.workers.values())

    @pytest.mark.parametrize("spawned,expected", [(0, 4), (2, 2)], ids=["external", "spawn2"])
    def test_the_first_joiner_takes_its_share_of_the_spawned_fleet(
        self, spawned, expected, serving
    ):
        # 16 jobs, 4 chunks per worker: a lone early joiner of a two-worker
        # spawn used to be handed ceil(16 / (4 * 1)) = 4 jobs
        jobs = [Job(f"job/{i}", _draw) for i in range(16)]
        server = Coordinator(PlanDriver(_plan(jobs), None, "distributed", spawned), FAST_RETRY)
        early = _FakeWorker(serving(server)[0])
        try:
            assert len(early.pull()["jobs"]) == expected
        finally:
            early.close()
            server.stop()


class TestTheWire:
    def test_both_ends_of_a_live_connection_disable_nagle(self, coordinator):
        from repro.engine.worker import WorkerSession

        server = coordinator[0]
        session = WorkerSession(*server.address, quiet=True)
        session.connect()
        try:
            _eventually(lambda: len(server.core.workers) == 2)
            joined = max(server.core.workers.items())[1]
            dialled, accepted = session.sock, server.socks[joined.conn]
            for sock in (dialled, accepted):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        finally:
            session.sock.close()

    def test_a_frame_from_the_coordinator_ends_the_idle_wait_at_once(self):
        """An idle worker reads the shutdown broadcast without sleeping out ``wait_s``."""
        from repro.engine.distributed import policy_to_wire
        from repro.engine.worker import WorkerSession

        listener = socket.create_server(("127.0.0.1", 0))
        session = WorkerSession(*listener.getsockname(), quiet=True)
        serving = threading.Thread(target=session.serve, daemon=True)
        serving.start()
        conn, _ = listener.accept()
        try:
            conn.settimeout(5.0)
            assert recv_frame(conn)["type"] == "hello"
            send_frame(conn, {
                "type": "welcome", "protocol": PROTOCOL_VERSION, "worker": 1, "experiment": "lifecycle",
                "seed": 11, "policy": policy_to_wire(FAST_RETRY), "heartbeat_interval_s": 60.0,
            })
            assert recv_frame(conn)["type"] == "next"
            send_frame(conn, {"type": "idle", "wait_s": 30.0})
            send_frame(conn, {"type": "shutdown"})
            assert recv_frame(conn)["type"] == "goodbye"  # a sleeping worker times this out
        finally:
            conn.close()
            listener.close()
        serving.join(timeout=5.0)
        assert not serving.is_alive()

    @pytest.mark.parametrize(
        "welcome,reply,complaint",
        [
            ({"seed": None}, None, "welcome payload lacks required field 'seed'"),
            ({}, {"type": "idle", "wait_s": "soon"}, "idle field 'wait_s' is wrong-typed"),
            ({}, {"type": "chunk"}, "chunk payload lacks required field 'jobs'"),
        ],
        ids=["welcome-without-seed", "idle-wait-a-string", "chunk-without-jobs"],
    )
    def test_a_malformed_frame_from_the_coordinator_ends_the_worker_cleanly(
        self, welcome, reply, complaint, capsys
    ):
        """A frame the worker cannot decode closes its socket and names the field."""
        from repro.engine.distributed import policy_to_wire
        from repro.engine.worker import WorkerSession

        listener = socket.create_server(("127.0.0.1", 0))
        session, served = WorkerSession(*listener.getsockname(), quiet=True), []
        serving = threading.Thread(target=lambda: served.append(session.serve()), daemon=True)
        serving.start()
        conn, _ = listener.accept()
        try:
            conn.settimeout(5.0)
            assert recv_frame(conn)["type"] == "hello"
            frame = {
                "type": "welcome", "protocol": PROTOCOL_VERSION, "worker": 1,
                "experiment": "lifecycle", "seed": 11, "policy": policy_to_wire(FAST_RETRY),
                "heartbeat_interval_s": 60.0, **welcome,
            }
            send_frame(conn, {key: value for key, value in frame.items() if value is not None})
            if reply is not None:
                assert recv_frame(conn)["type"] == "next"
                send_frame(conn, reply)
            assert recv_frame(conn) is None  # the worker hung up: no goodbye, no hang
        finally:
            conn.close()
            listener.close()
        serving.join(timeout=5.0)
        assert not serving.is_alive() and served == [None]  # repro worker exits with status 1
        assert session.sock.fileno() == -1
        _eventually(lambda: "repro-worker-heartbeat" not in {t.name for t in threading.enumerate()})
        assert f"repro worker: {complaint}" in capsys.readouterr().err
