"""Ctrl-C handling: PlanInterrupted, partial checkpoints, manifest status.

In-process tests inject ``KeyboardInterrupt`` from a job function (what a
SIGINT delivered mid-job looks like to the executor); the CLI test sends a
real SIGINT to a ``repro run`` subprocess and then resumes it.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    Checkpoint,
    Job,
    JobPlan,
    ParallelExecutor,
    PlanInterrupted,
    SerialExecutor,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = str(REPO_ROOT / "src")


def _draw(params, seed_seq):
    rng = np.random.default_rng(seed_seq)
    return float(rng.random()) + params.get("offset", 0.0)


def _interrupt(params, seed_seq):
    time.sleep(params.get("sleep_s", 0.0))
    raise KeyboardInterrupt


def _plan(jobs, seed=5, experiment="inttest"):
    return JobPlan(experiment=experiment, seed=seed, jobs=jobs, reduce=lambda v: v)


class TestSerialInterrupt:
    def test_settled_jobs_survive_and_checkpoint_is_written(self, tmp_path):
        jobs = [Job(name=f"ok/{i}", fn=_draw, params={"offset": float(i)}) for i in range(3)]
        jobs.append(Job(name="ctrl-c", fn=_interrupt, params={}))
        jobs.append(Job(name="never-ran", fn=_draw, params={}))
        checkpoint = Checkpoint(tmp_path / "inttest.checkpoint.jsonl")

        with pytest.raises(PlanInterrupted) as excinfo:
            SerialExecutor().run(_plan(jobs), checkpoint=checkpoint)

        execution = excinfo.value.execution
        assert execution.interrupted
        assert sorted(execution.values) == ["ok/0", "ok/1", "ok/2"]
        assert "never-ran" not in execution.values
        persisted = (tmp_path / "inttest.checkpoint.jsonl").read_text().splitlines()
        assert len(persisted) == 3  # everything settled before the interrupt

    def test_resume_after_interrupt_completes_the_plan(self, tmp_path):
        path = tmp_path / "inttest.checkpoint.jsonl"

        def jobs(include_interrupt):
            out = [Job(name=f"ok/{i}", fn=_draw, params={"offset": float(i)}) for i in range(4)]
            if include_interrupt:
                out.insert(2, Job(name="ctrl-c", fn=_interrupt, params={}))
            return out

        with pytest.raises(PlanInterrupted):
            SerialExecutor().run(_plan(jobs(True)), checkpoint=Checkpoint(path))
        # rerun without the interrupting job: checkpointed jobs are skipped
        finished = SerialExecutor().run(_plan(jobs(False)), checkpoint=Checkpoint(path))
        assert sorted(finished.resumed) == ["ok/0", "ok/1"]
        reference = SerialExecutor().run(_plan(jobs(False)))
        assert finished.values == reference.values


class TestParallelInterrupt:
    def test_completed_chunks_are_settled_before_raising(self, tmp_path):
        # the interrupting job occupies one worker for a second while the
        # other worker finishes every fast job; the interrupt must not lose
        # those settled results
        jobs = [Job(name="ctrl-c", fn=_interrupt, params={"sleep_s": 1.0})]
        jobs += [Job(name=f"ok/{i}", fn=_draw, params={"offset": float(i)}) for i in range(6)]
        checkpoint = Checkpoint(tmp_path / "inttest.checkpoint.jsonl")

        with pytest.raises(PlanInterrupted) as excinfo:
            ParallelExecutor(workers=2).run(_plan(jobs), checkpoint=checkpoint)

        execution = excinfo.value.execution
        assert execution.interrupted
        assert len(execution.values) == 6, "fast jobs finished before the interrupt"
        persisted = (tmp_path / "inttest.checkpoint.jsonl").read_text().splitlines()
        assert len(persisted) == len(execution.values)


FIGURE2_ARGS = ["figure2", "--quick", "--heartbeat", "0"]


class TestCliSigint:
    def test_sigint_marks_manifest_interrupted_and_resume_completes(self, tmp_path):
        from repro.experiments import runner

        baseline = tmp_path / "baseline"
        assert runner.main([*FIGURE2_ARGS, "--out", str(baseline)]) == 0

        out = tmp_path / "interrupted"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", *FIGURE2_ARGS,
             "--out", str(out)],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        # interrupt once real progress is checkpointed but long before the end
        checkpoint = out / "figure2.checkpoint.jsonl"
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if checkpoint.exists() and len(checkpoint.read_text().splitlines()) >= 5:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("quick figure2 never checkpointed 5 jobs")
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60.0)
        assert proc.returncode == 130, stderr.decode()
        assert b"resume with" in stderr

        manifest = json.loads((out / "figure2.manifest.json").read_text())
        assert manifest["extra"]["status"] == "interrupted"
        assert manifest["extra"]["completed_jobs"] >= 5
        assert not (out / "figure2_montecarlo.csv").exists()  # reduce never ran

        assert runner.main(["--resume", str(out), "--heartbeat", "0"]) == 0
        for artifact in ("figure2_montecarlo.csv", "figure2_equation1.csv"):
            assert (out / artifact).read_bytes() == (baseline / artifact).read_bytes()
        resumed_manifest = json.loads((out / "figure2.manifest.json").read_text())
        assert "status" not in resumed_manifest["extra"]  # clean completion overwrote it
