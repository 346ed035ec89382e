"""Group commit: one fsync per settled batch, events after durability, exact crash cuts.

``PlanDriver.settle`` hands a batch's ok outcomes to ``Checkpoint.commit`` —
one write + flush + fsync — so the serial backend pays one fsync per job and
the process pool and the TCP coordinator one per chunk.  The new failure
mode is a *torn group*: ``DRS_ENGINE_CRASH_AFTER=k`` cuts the commit that
crosses ``k`` to the prefix that reaches it, and these tests kill real runs
at the first record of a group, mid-group and at its last.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Checkpoint, Job, JobOutcome, JobPlan, SerialExecutor
from repro.engine.chunk import guided_chunks
from repro.experiments import runner
from repro.obs.flightrecorder import (
    FlightRecorder,
    flight_recorder,
    read_flight_events,
    set_flight_recorder,
)
from tests.engine.test_lifecycle import BACKENDS

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src")
FIGURE2_ARGS = ["figure2", "--quick", "--heartbeat", "0"]
FIGURE2_CSVS = ("figure2_montecarlo.csv", "figure2_equation1.csv", "figure2_endpoints.csv")


def _draw(params, seed_seq):
    return float(np.random.default_rng(seed_seq).random()) + params.get("offset", 0.0)


def _plan(n=16, experiment="grouptest", seed=3):
    jobs = [Job(f"job/{i}", _draw, {"offset": float(i)}) for i in range(n)]
    return JobPlan(experiment=experiment, seed=seed, jobs=jobs, reduce=lambda v: v)


def _outcomes(names, value=0.5):
    return [JobOutcome(name=name, ok=True, value=value) for name in names]


@pytest.fixture
def recorder():
    rec = FlightRecorder(None, experiment="grouptest")
    set_flight_recorder(rec)
    yield rec
    set_flight_recorder(None)


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` of this process, as the ``checkpoint.write`` events seen before it."""
    calls, real = [], os.fsync

    def counting(fd):
        rec = flight_recorder()
        calls.append(rec.by_kind.get("checkpoint.write", 0) if rec is not None else None)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestCommit:
    def test_one_fsync_then_one_event_per_record_with_running_offsets(
        self, tmp_path, recorder, fsyncs
    ):
        path = tmp_path / "grouptest.checkpoint.jsonl"
        checkpoint, plan = Checkpoint(path), _plan()
        assert checkpoint.commit(plan, _outcomes(["job/0", "job/1", "job/2"])) == 3
        assert checkpoint.commit(plan, _outcomes(["job/3", "job/4"])) == 2
        # each fsync came before any checkpoint.write of its own group
        assert fsyncs == [0, 3]
        writes = [e for e in recorder.drain() if e["kind"] == "checkpoint.write"]
        assert [e["job"] for e in writes] == [f"job/{i}" for i in range(5)]
        assert [e["records"] for e in writes] == [1, 2, 3, 4, 5]
        lines = path.read_bytes().splitlines(keepends=True)
        ends = np.cumsum([len(line) for line in lines]).tolist()
        assert [e["bytes"] for e in writes] == ends and ends[-1] == path.stat().st_size

    def test_unencodable_values_are_skipped_inside_a_group(self, tmp_path, fsyncs):
        path = tmp_path / "grouptest.checkpoint.jsonl"
        checkpoint, plan = Checkpoint(path), _plan()
        group = _outcomes(["job/0"]) + [JobOutcome("job/1", ok=True, value=object())]
        assert checkpoint.commit(plan, group + _outcomes(["job/2"])) == 2
        assert checkpoint.commit(plan, [JobOutcome("job/3", ok=True, value=object())]) == 0
        assert len(fsyncs) == 1  # nothing to persist, nothing synced
        assert [r.job for r in Checkpoint(path).load(plan)] == ["job/0", "job/2"]

    def test_superseding_keeps_order_of_last_write_and_compacts_once_per_commit(self, tmp_path):
        path = tmp_path / "grouptest.checkpoint.jsonl"
        checkpoint, plan = Checkpoint(path, compact_threshold=2), _plan()
        checkpoint.commit(plan, _outcomes(["job/0", "job/1", "job/2"], value=1.0))
        # three supersessions in one group cross the threshold of 2 mid-group,
        # yet the file is rewritten once, after the whole group is durable
        checkpoint.commit(plan, _outcomes(["job/1", "job/0", "job/2"], value=2.0))
        assert checkpoint.compactions == 1
        assert len(path.read_text().splitlines()) == 3
        reloaded = Checkpoint(path).load(plan)
        assert [r.job for r in reloaded] == ["job/1", "job/0", "job/2"]
        assert {r.job: r.value for r in reloaded} == {"job/0": 2.0, "job/1": 2.0, "job/2": 2.0}

    def test_the_first_commit_creates_a_missing_directory(self, tmp_path):
        path = tmp_path / "not" / "yet" / "grouptest.checkpoint.jsonl"
        assert Checkpoint(path).commit(_plan(), _outcomes(["job/0"])) == 1
        assert len(path.read_text().splitlines()) == 1


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_one_fsync_per_settle(backend, tmp_path, recorder, fsyncs):
    """Jobs on serial, chunks on the pool and the coordinator."""
    plan = _plan(n=16)
    checkpoint = Checkpoint(tmp_path / "grouptest.checkpoint.jsonl")
    execution = BACKENDS[backend]().run(plan, checkpoint=checkpoint)
    assert execution.values == SerialExecutor().run(_plan(n=16)).values
    assert len(checkpoint.load(plan)) == 16
    gauges = recorder.by_kind.get("scheduler.gauge", 0)
    chunks = {
        "serial": 16,  # every job is its own settle
        "pool2": len(guided_chunks(plan.jobs, 2)),  # 12: 2, 2, 2, 2, then eight single jobs
        "distributed2": gauges // 2,  # one sample per chunk handed out, one per absorb
    }[backend]
    assert len(fsyncs) == chunks
    if backend == "distributed2":
        assert 2 <= chunks < 16
        assert sum(host["jobs"] for host in execution.hosts.values()) == 16


# ------------------------------------------------------------- crash matrix
CRASH_SCRIPT = """
import sys
from repro.engine import Checkpoint, Job, JobOutcome, JobPlan
jobs = [Job(f"job/{i}", len, {}) for i in range(9)]
plan = JobPlan(experiment="grouptest", seed=3, jobs=jobs, reduce=lambda v: v)
checkpoint = Checkpoint(sys.argv[1])
for start in (0, 3, 6):  # three groups of three
    checkpoint.commit(plan, [JobOutcome(f"job/{i}", ok=True, value=float(i))
                             for i in range(start, start + 3)])
"""


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("DRS_WORKER_CRASH_AFTER_CHUNKS", None)
    env.update(extra)
    return env


@pytest.mark.parametrize("k,where", [(4, "first"), (5, "middle"), (6, "last")])
def test_the_crash_hook_cuts_the_crossing_group_to_exactly_k(tmp_path, k, where):
    path = tmp_path / "grouptest.checkpoint.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", CRASH_SCRIPT, str(path)],
        env=_env(DRS_ENGINE_CRASH_AFTER=str(k)), capture_output=True, timeout=60,
    )
    assert proc.returncode != 0, f"survived a crash at the {where} record of the second group"
    assert len(path.read_text().splitlines()) == k
    # fingerprints depend on (seed, experiment, job name) only: _plan names the same jobs
    assert [r.job for r in Checkpoint(path).load(_plan(n=9))] == [f"job/{i}" for i in range(k)]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    assert runner.main([*FIGURE2_ARGS, "--out", str(out)]) == 0
    return out


# quick figure2 is 61 jobs, cut on both backends into guided chunks (8, 7, 6,
# 5, 5, ...) that commit in completion order: the first group is records 1..8
# or 1..7, so k = 9, 12 and 16 land on the first, a middle or the last record
# of a later group depending on the schedule — the contract is the same
@pytest.mark.parametrize("k", [9, 12, 16], ids=["first-of-group", "mid-group", "last-of-group"])
@pytest.mark.parametrize(
    "backend_args", [["--jobs", "2"], ["--backend", "distributed", "--jobs", "2"]],
    ids=["pool2", "distributed2"],
)
def test_a_run_killed_inside_a_group_resumes_byte_identical(tmp_path, baseline, backend_args, k):
    out = tmp_path / "killed"
    # its own session, no pipes: SIGKILL orphans the pool's worker processes,
    # which would hold captured pipes open and outlive the test
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", *FIGURE2_ARGS, *backend_args,
         "--out", str(out)],
        env=_env(DRS_ENGINE_CRASH_AFTER=str(k)), cwd=REPO_ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        proc.wait(timeout=120)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode != 0  # SIGKILL'd by the hook
    checkpoint = out / "figure2.checkpoint.jsonl"
    lines = checkpoint.read_text().splitlines()
    assert len(lines) == k  # died with exactly k records on disk
    persisted = {json.loads(line)["job"] for line in lines}
    assert len(persisted) == k
    # nothing the flight stream announced as checkpointed was lost
    announced = {e["job"] for e in read_flight_events(out / "figure2.flight.jsonl")
                 if e["kind"] == "checkpoint.write"}
    assert announced <= persisted
    assert not (out / "figure2_montecarlo.csv").exists()  # reduce never ran

    assert runner.main(["--resume", str(out), "--heartbeat", "0"]) == 0
    for artifact in FIGURE2_CSVS:
        assert (out / artifact).read_bytes() == (baseline / artifact).read_bytes()
    fault = json.loads((out / "figure2.manifest.json").read_text())["extra"]["fault_tolerance"]
    assert sorted(fault["resumed"]) == sorted(persisted)
