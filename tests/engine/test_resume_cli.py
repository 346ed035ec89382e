"""End-to-end --resume: SIGKILL a quick sweep mid-run, resume, diff the bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import runner

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

FIGURE2_ARGS = ["figure2", "--quick", "--heartbeat", "0"]


def _run_killed(out_dir, crash_after=50):
    """Run quick figure2 in a subprocess that SIGKILLs itself mid-checkpoint."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["DRS_ENGINE_CRASH_AFTER"] = str(crash_after)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", *FIGURE2_ARGS, "--out", str(out_dir)],
        env=env,
        capture_output=True,
        timeout=300,
    )
    return proc


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    assert runner.main([*FIGURE2_ARGS, "--out", str(out)]) == 0
    return out


def test_killed_then_resumed_run_is_byte_identical(tmp_path, baseline):
    out = tmp_path / "interrupted"
    proc = _run_killed(out)
    assert proc.returncode != 0  # SIGKILL'd (-9, or 137 through a shell)
    checkpoint = out / "figure2.checkpoint.jsonl"
    assert checkpoint.exists()
    completed_before = len(checkpoint.read_text().splitlines())
    assert completed_before == 50  # died exactly at the injection point
    assert not (out / "figure2_montecarlo.csv").exists()  # reduce never ran

    assert runner.main(["--resume", str(out), "--heartbeat", "0"]) == 0
    for artifact in ("figure2_montecarlo.csv", "figure2_equation1.csv", "figure2_endpoints.csv"):
        assert (out / artifact).read_bytes() == (baseline / artifact).read_bytes()

    manifest = json.loads((out / "figure2.manifest.json").read_text())
    fault = manifest["extra"]["fault_tolerance"]
    assert len(fault["resumed"]) == completed_before
    assert fault["quarantined"] == []


def test_resume_requires_run_json(tmp_path):
    with pytest.raises(SystemExit):
        runner.main(["--resume", str(tmp_path / "nothing-here")])


def test_resume_rejects_conflicting_overrides(tmp_path):
    with pytest.raises(SystemExit):
        runner.main(["--resume", str(tmp_path), "figure2"])
    with pytest.raises(SystemExit):
        runner.main(["--resume", str(tmp_path), "--seed", "4"])


def test_run_json_records_the_invocation(tmp_path, baseline):
    state = json.loads((baseline / "run.json").read_text())
    assert state["names"] == ["figure2"]
    assert state["quick"] is True
    assert state["fail_fast"] is False
    assert state["retries"] == 2


def test_no_checkpoint_skips_the_stream(tmp_path):
    out = tmp_path / "nochk"
    assert runner.main([*FIGURE2_ARGS, "--out", str(out), "--no-checkpoint"]) == 0
    assert not (out / "figure2.checkpoint.jsonl").exists()
    # and resuming from it is refused
    with pytest.raises(SystemExit):
        runner.main(["--resume", str(out)])


def test_retries_flag_validation(tmp_path):
    with pytest.raises(SystemExit):
        runner.main(["--retries", "-1", "--out", str(tmp_path), "figure2"])
    with pytest.raises(SystemExit):
        runner.main(["--job-timeout", "0", "--out", str(tmp_path), "figure2"])
