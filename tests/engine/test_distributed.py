"""Distributed backend: wire protocol, byte-identity, and fault injection.

The job functions live at module level because distributed workers resolve
them by ``module:qualname`` import — the same constraint process pools
impose via pickling.  Worker subprocesses run with the repo root as their
working directory, so ``tests.engine.test_distributed`` is importable
through the ``-m`` launcher's cwd entry on ``sys.path``.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    Checkpoint,
    DistributedExecutor,
    Job,
    JobError,
    JobPlan,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    make_executor,
)
from repro.engine import coordinator as coordinator_module
from repro.engine import distributed as distributed_module
from repro.engine.chunk import ChunkResult
from repro.engine.distributed import (
    WORKER_CRASH_ENV,
    ProtocolError,
    job_from_wire,
    job_to_wire,
    outcome_from_wire,
    outcome_to_wire,
    parse_address,
    policy_from_wire,
    policy_to_wire,
    recv_frame,
    send_frame,
)
from repro.engine.retry import JobOutcome
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src")


def _draw(params, seed_seq):
    rng = np.random.default_rng(seed_seq)
    return float(rng.random()) + params.get("offset", 0.0)


def _slow_draw(params, seed_seq):
    time.sleep(params.get("sleep_s", 0.2))
    return _draw(params, seed_seq)


def _boom(params, seed_seq):
    raise RuntimeError("injected failure")


def _plan(n=8, fn=_draw, seed=7, experiment="disttest", **extra_params):
    jobs = [
        Job(name=f"job/{i}", fn=fn, params={"offset": float(i), **extra_params})
        for i in range(n)
    ]
    return JobPlan(experiment=experiment, seed=seed, jobs=jobs, reduce=lambda v: v)


@pytest.fixture
def recorder():
    rec = FlightRecorder(None, experiment="disttest")
    set_flight_recorder(rec)
    yield rec
    set_flight_recorder(None)


class TestFraming:
    def test_frame_round_trip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"type": "chunk", "jobs": [1, 2, 3], "nested": {"x": 0.5}}
            send_frame(a, payload)
            send_frame(a, {"type": "idle"})
            assert recv_frame(b) == payload
            assert recv_frame(b) == {"type": "idle"}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_untyped_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"no_type_field": 1})
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("spec", ["127.0.0.1:0", "0.0.0.0:7077", "example.com:12345"])
    def test_parse_address_accepts(self, spec):
        host, port = parse_address(spec)
        assert host and 0 <= port <= 65535

    @pytest.mark.parametrize("spec", ["nohost", ":", "host:", "host:notaport", "host:70000"])
    def test_parse_address_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_address(spec)


def registry_field(rows):
    """The chunk decoder on a ``chunk_done`` that carries only registry rows."""
    return ChunkResult.from_wire({"registry": rows})


class TestWireCodecs:
    def test_job_round_trip_resolves_the_function(self):
        job = Job(name="j", fn=_draw, params={"offset": 1.0, "grid": (2, 3)})
        back = job_from_wire(json.loads(json.dumps(job_to_wire(job))))
        assert back.name == "j"
        assert back.fn is _draw
        assert back.params == {"offset": 1.0, "grid": (2, 3)}

    def test_non_module_level_function_rejected(self):
        with pytest.raises(TypeError):
            job_to_wire(Job(name="j", fn=lambda p, s: 0.0, params={}))

    def test_outcome_round_trip_keeps_values_exact(self):
        value = {"2": 0.1 + 0.2, "grid": (1.5, 2.5), "arr": np.array([0.1, 0.2])}
        outcome = JobOutcome(name="j", ok=True, value=value, attempts=2, elapsed_s=0.5)
        back = outcome_from_wire(json.loads(json.dumps(outcome_to_wire(outcome))))
        assert back.name == "j" and back.ok and back.attempts == 2
        assert back.value["2"] == value["2"]
        assert back.value["grid"] == value["grid"]
        np.testing.assert_array_equal(back.value["arr"], value["arr"])

    def test_failed_outcome_round_trips(self):
        outcome = JobOutcome(name="j", ok=False, error="boom", attempts=3, timed_out=True)
        back = outcome_from_wire(outcome_to_wire(outcome))
        assert not back.ok and back.error == "boom" and back.timed_out

    def test_unencodable_value_is_not_the_codecs_to_degrade(self):
        # execute_job fails such a job before it has an outcome, on every backend alike
        # (tests/engine/test_value_path.py): the wire codec holds no second opinion
        with pytest.raises(TypeError, match="not checkpointable"):
            outcome_to_wire(JobOutcome(name="j", ok=True, value=object()))

    @pytest.mark.parametrize(
        "decode,payload,complaint",
        [
            (outcome_from_wire, {"ok": True, "value": 0.5}, "outcome payload lacks .*'name'"),
            (outcome_from_wire, {"name": "j"}, "outcome payload lacks .*'ok'"),
            (outcome_from_wire, ["j", True], "outcome payload is not an object"),
            (job_from_wire, {"name": "j", "params": {}}, "job payload lacks .*'fn'"),
            (job_from_wire, "j", "job payload is not an object"),
            (outcome_from_wire, {"name": "j", "ok": True, "attempts": "x"}, "'attempts' is wrong-typed"),
            (outcome_from_wire, {"name": ["j"], "ok": True}, "'name' is wrong-typed"),
            (outcome_from_wire, {"name": "j", "ok": True, "value": {"__ndarray__": [1]}},
             "'value' is wrong-typed"),
            (registry_field, [{"name": "n", "value": 1.0}], r"'registry' is wrong-typed.*KeyError\('kind'\)"),
            (registry_field, [{"name": "n", "kind": "gauge", "value": "x"}],
             "not a registry snapshot row .*could not convert string to float"),
            (registry_field, [{"name": "n", "kind": "counter", "value": 1.0}],
             r"not a registry snapshot row \(KeyError\('events'\)\): {'name': 'n'"),
            (registry_field, [{"name": "n", "kind": "gauge", "value": 1, "labels": [1]}],
             "not a registry snapshot row .*'labels': "),
            (registry_field, [7], "not a registry snapshot row .*: 7"),
            (registry_field, {"name": "n"}, "'registry' is wrong-typed"),
        ],
    )
    def test_malformed_payloads_are_protocol_errors(self, decode, payload, complaint):
        # the coordinator's handler survives ProtocolError, not KeyError/TypeError
        with pytest.raises(ProtocolError, match=complaint):
            decode(payload)

    def test_policy_round_trip(self):
        policy = RetryPolicy(max_attempts=4, timeout_s=2.5, quarantine=True)
        assert policy_from_wire(json.loads(json.dumps(policy_to_wire(policy)))) == policy

    def test_registry_round_trip_is_merge_compatible(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").add(3.0)
        registry.gauge("depth").set(7.0)
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        registry.histogram("empty", buckets=(1.0,))  # min/max at +-inf

        rebuilt = MetricsRegistry.from_rows(json.loads(json.dumps(registry.snapshot())))
        target = MetricsRegistry()
        target.counter("jobs_total").add(1.0)
        target.merge(rebuilt)
        assert target.counter("jobs_total").value == 4.0
        assert target.gauge("depth").value == 7.0
        merged_hist = target.histogram("lat", buckets=(0.1, 1.0))
        assert merged_hist.count == 2 and merged_hist.min == 0.05 and merged_hist.max == 5.0
        empty = target.histogram("empty", buckets=(1.0,))
        assert empty.count == 0 and empty.min == float("inf")


class TestMakeExecutor:
    def test_distributed_backend_spawns_jobs_workers(self):
        ex = make_executor(3, backend="distributed")
        assert isinstance(ex, DistributedExecutor) and ex.spawn_workers == 3

    def test_distributed_backend_jobs_zero_waits_for_external_workers(self):
        ex = make_executor(0, backend="distributed", coordinator="0.0.0.0:7077")
        assert isinstance(ex, DistributedExecutor)
        assert ex.spawn_workers == 0 and ex.bind_host == "0.0.0.0" and ex.bind_port == 7077

    def test_local_backend_unchanged(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(2), ParallelExecutor)

    def test_coordinator_with_local_backend_rejected(self):
        with pytest.raises(ValueError):
            make_executor(2, coordinator="127.0.0.1:7077")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_executor(2, backend="slurm")


class TestByteIdentity:
    def test_distributed_matches_serial(self):
        serial = SerialExecutor().run(_plan(n=10))
        dist = DistributedExecutor(spawn_workers=2).run(_plan(n=10))
        assert dist.values == serial.values
        assert dist.backend == "distributed"
        assert sum(h["jobs"] for h in dist.hosts.values()) == 10
        assert all(h["host"] and h["pid"] for h in dist.hosts.values())

    def test_resumes_from_checkpoint(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "disttest.checkpoint.jsonl")
        plan = _plan(n=6)
        checkpoint.load(plan)
        done = SerialExecutor().run(_plan(n=3))  # jobs 0..2 share names with the plan
        for name, value in done.values.items():
            checkpoint.record(plan, JobOutcome(name=name, ok=True, value=value))

        dist = DistributedExecutor(spawn_workers=2).run(
            _plan(n=6), checkpoint=Checkpoint(tmp_path / "disttest.checkpoint.jsonl")
        )
        assert sorted(dist.resumed) == ["job/0", "job/1", "job/2"]
        assert dist.values == SerialExecutor().run(_plan(n=6)).values

    def test_quarantine_completes_the_run(self):
        plan = JobPlan(
            experiment="disttest",
            seed=7,
            jobs=[
                Job(name="ok", fn=_draw, params={}),
                Job(name="bad", fn=_boom, params={}),
            ],
            reduce=lambda v: v,
        )
        policy = RetryPolicy(max_attempts=1, quarantine=True)
        dist = DistributedExecutor(spawn_workers=1, policy=policy).run(plan)
        assert dist.quarantined == ["bad"]
        assert "ok" in dist.values and "bad" not in dist.values

    def test_fail_fast_raises_job_error(self):
        plan = JobPlan(
            experiment="disttest",
            seed=7,
            jobs=[Job(name="bad", fn=_boom, params={})],
            reduce=lambda v: v,
        )
        with pytest.raises(JobError, match="bad"):
            DistributedExecutor(spawn_workers=1).run(plan)


class TestFaultInjection:
    def test_killed_worker_jobs_are_requeued_and_bytes_match(self, recorder, monkeypatch):
        serial = SerialExecutor().run(_plan(n=12))
        monkeypatch.setenv(WORKER_CRASH_ENV, "1")
        monkeypatch.setattr(distributed_module, "HEARTBEAT_TIMEOUT_S", 4.0)
        ex = DistributedExecutor(spawn_workers=2)
        dist = ex.run(_plan(n=12))
        assert dist.values == serial.values
        assert dist.pool_respawns >= 1  # the dead spawned workers were replaced
        kinds = recorder.by_kind
        assert kinds.get("worker.leave", 0) >= 1
        assert kinds.get("job.stolen", 0) >= 1

    def test_all_workers_dead_with_no_respawn_budget_fails(self, monkeypatch):
        monkeypatch.setenv(WORKER_CRASH_ENV, "0")  # die on the very first chunk
        monkeypatch.setattr(coordinator_module, "MAX_WORKER_RESPAWNS", 0)
        monkeypatch.setattr(distributed_module, "HEARTBEAT_TIMEOUT_S", 4.0)
        ex = DistributedExecutor(spawn_workers=2)
        with pytest.raises(JobError, match="respawn budget"):
            ex.run(_plan(n=6))

    def test_late_joining_worker_steals_from_a_saturated_queue(self):
        ex = DistributedExecutor(spawn_workers=0)
        coordinator, result, address = _coordinate_in_thread(
            ex, _plan(n=10, fn=_slow_draw, sleep_s=0.15)
        )
        first = _launch_worker(address)
        time.sleep(1.0)  # let the first worker saturate itself with chunks
        second = _launch_worker(address)
        coordinator.join(timeout=60.0)
        assert not coordinator.is_alive(), "distributed run never finished"
        first.wait(timeout=10.0)
        second.wait(timeout=10.0)

        execution = result["execution"]
        # job values depend only on (seed, experiment, job name) — the
        # sleep_s param shapes wall time, so the fast serial plan is the
        # byte-identity reference
        serial = SerialExecutor().run(_plan(n=10, fn=_slow_draw, sleep_s=0.0))
        assert execution.values == serial.values
        assert len(execution.hosts) == 2, "the late joiner never registered"
        jobs_by_worker = sorted(h["jobs"] for h in execution.hosts.values())
        assert jobs_by_worker[0] >= 1, "the late joiner pulled no work from the queue"

    @pytest.mark.parametrize(
        "malformed",
        [
            {"outcomes": [{"ok": True, "value": 0.5}]},
            {"outcomes": [{"name": "job/0", "ok": True, "value": 0.5, "attempts": "x"}]},
            {"registry": [{"name": "jobs_total", "value": 1.0, "events": 1}]},
            {"heartbeat": [1]},
            {"flight": [7]},
        ],
        ids=["outcome-without-name", "attempts-not-a-number", "registry-row-without-kind",
             "heartbeat-not-an-object", "flight-not-objects"],
    )
    def test_chunk_done_missing_a_field_drops_the_worker_not_the_handler(
        self, recorder, monkeypatch, malformed
    ):
        # a worker whose chunk_done outcome lacks "name" used to kill the
        # coordinator's handler thread with a KeyError *after* the chunk had
        # been taken off its handle, so those jobs were never requeued; a
        # wrong-typed field did the same with a ValueError / AttributeError —
        # the heartbeat and flight ones inside settle(), under the lock, after
        # the chunk's outcomes had been recorded
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        ex = DistributedExecutor(spawn_workers=0)
        coordinator, result, address = _coordinate_in_thread(ex, _plan(n=8))

        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=10.0) as fake:
            send_frame(fake, {"type": "hello", "host": "fake", "pid": 1})
            assert recv_frame(fake)["type"] == "welcome"
            send_frame(fake, {"type": "next"})
            chunk = recv_frame(fake)
            assert chunk["type"] == "chunk" and chunk["jobs"]
            send_frame(fake, {"type": "chunk_done", **malformed})
            assert recv_frame(fake) is None, "the coordinator kept a malformed peer connected"

        healthy = _launch_worker(address)
        try:
            coordinator.join(timeout=60.0)
            assert not coordinator.is_alive(), "the malformed worker's chunk was never requeued"
            healthy.wait(timeout=10.0)
        finally:
            if healthy.poll() is None:
                healthy.kill()

        assert result["execution"].values == SerialExecutor().run(_plan(n=8)).values
        assert crashes == []
        events = recorder.drain()
        (fake_left,) = [e for e in events if e["kind"] == "worker.leave" and e["host"] == "fake"]
        assert fake_left["reason"] == "disconnect"
        assert fake_left["requeued"] == len(chunk["jobs"])
        stolen = sorted(e["job"] for e in events if e["kind"] == "job.stolen")
        assert stolen == sorted(job["name"] for job in chunk["jobs"])


def _coordinate_in_thread(ex, plan):
    """Run ``plan`` on a background thread; returns (thread, result dict, "HOST:PORT")."""
    result: dict = {}

    def drive():
        result["execution"] = ex.run(plan)

    coordinator = threading.Thread(target=drive, daemon=True)
    coordinator.start()
    deadline = time.monotonic() + 10.0
    while ex.address is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert ex.address is not None, "coordinator never bound"
    return coordinator, result, f"{ex.address[0]}:{ex.address[1]}"


def _launch_worker(address):
    """One real ``repro worker`` subprocess against ``address`` (no crash injection)."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.engine.worker", "--coordinator", address, "--quiet"],
        env=_env_with_src(),
        cwd=REPO_ROOT,
    )


FIGURE2_ARGS = ["figure2", "--quick", "--heartbeat", "0"]


def _env_with_src(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(WORKER_CRASH_ENV, None)
    env.pop("DRS_ENGINE_CRASH_AFTER", None)
    env.update(extra)
    return env


class TestCoordinatorCrashResume:
    def test_coordinator_sigkill_then_resume_is_byte_identical(self, tmp_path):
        from repro.experiments import runner

        baseline = tmp_path / "baseline"
        assert runner.main([*FIGURE2_ARGS, "--out", str(baseline)]) == 0

        out = tmp_path / "killed"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", *FIGURE2_ARGS,
             "--backend", "distributed", "--jobs", "2", "--out", str(out)],
            env=_env_with_src(DRS_ENGINE_CRASH_AFTER="20"),
            capture_output=True,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert proc.returncode != 0  # the coordinator was SIGKILL'd mid-run
        checkpoint = out / "figure2.checkpoint.jsonl"
        assert checkpoint.exists()
        assert len(checkpoint.read_text().splitlines()) == 20

        # --resume replays the invocation; the backend is machine-local and
        # deliberately not part of the run state, so the resume runs serial
        assert runner.main(["--resume", str(out), "--heartbeat", "0"]) == 0
        for artifact in ("figure2_montecarlo.csv", "figure2_equation1.csv"):
            assert (out / artifact).read_bytes() == (baseline / artifact).read_bytes()
