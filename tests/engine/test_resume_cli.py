"""End-to-end --resume: SIGKILL a quick sweep mid-run, resume, diff the bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.checkpoint import CHECKPOINT_SCHEMA_VERSION
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
    assert "fail_fast" not in state
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


@pytest.mark.parametrize("flag", ["--target-ci", "--job-timeout"])
def test_nan_is_not_positive(tmp_path, flag):
    # nan <= 0 is False: the check must be "not > 0".  --list keeps a missed
    # rejection from running the experiment
    with pytest.raises(SystemExit) as excinfo:
        runner.main([flag, "nan", "--list", "--out", str(tmp_path), "figure2"])
    assert excinfo.value.code == 2


#: the run.json a ``--target-ci 0.02`` quick figure2 wrote before ``--ci-confidence``
#: and ``--fail-fast`` were removed: it still records each option's one value
RUN_JSON_WITH_CI_CONFIDENCE = {
    "ci_confidence": 0.95, "fail_fast": False, "job_timeout": None, "mc_method": None,
    "names": ["figure2"], "no_checkpoint": False, "quick": True, "retries": 2, "schema": 1,
    "seed": None, "target_ci": 0.02, "topology": None,
}


def test_a_run_json_that_still_records_ci_confidence_resumes_to_the_same_csvs(tmp_path):
    fresh = tmp_path / "fresh"
    assert runner.main([*FIGURE2_ARGS, "--target-ci", "0.02", "--out", str(fresh)]) == 0
    assert json.loads((fresh / "run.json").read_text()) == {
        k: v for k, v in RUN_JSON_WITH_CI_CONFIDENCE.items() if k not in ("ci_confidence", "fail_fast")
    }
    out = tmp_path / "resumed"
    out.mkdir()
    (out / "run.json").write_text(json.dumps(RUN_JSON_WITH_CI_CONFIDENCE, indent=2, sort_keys=True) + "\n")
    checkpoint = (fresh / "figure2.checkpoint.jsonl").read_text().splitlines(keepends=True)
    (out / "figure2.checkpoint.jsonl").write_text("".join(checkpoint[:20]))
    assert runner.main(["--resume", str(out), "--heartbeat", "0"]) == 0
    csvs = sorted(fresh.glob("*.csv"))
    assert "figure2_mc_precision.csv" in [path.name for path in csvs]
    for path in csvs:
        assert (out / path.name).read_bytes() == path.read_bytes()
    manifest = json.loads((out / "figure2.manifest.json").read_text())
    assert manifest["config"]["ci_confidence"] == 0.95
    assert len(manifest["extra"]["fault_tolerance"]["resumed"]) == 20


def test_resume_refuses_a_checkpoint_of_another_schema_in_one_line(tmp_path, capsys, baseline):
    out = tmp_path / "resumed"
    out.mkdir()
    (out / "run.json").write_text((baseline / "run.json").read_text())
    lines = (baseline / "figure2.checkpoint.jsonl").read_text().splitlines(keepends=True)[:20]
    record = json.loads(lines[5])
    record["schema"] = newer = CHECKPOINT_SCHEMA_VERSION + 1
    lines[5] = json.dumps(record) + "\n"
    checkpoint = out / "figure2.checkpoint.jsonl"
    checkpoint.write_text("".join(lines))
    assert runner.main(["--resume", str(out), "--heartbeat", "0"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1] == (
        f"repro run: error: {checkpoint}: checkpoint record schema {newer}; "
        f"this repro reads schema {CHECKPOINT_SCHEMA_VERSION}"
    )
    assert not (out / "figure2_montecarlo.csv").exists()


@pytest.mark.parametrize("schema", [None, 0, 2, "1"], ids=["missing", "older", "newer", "a-string"])
def test_resume_refuses_another_run_state_version_in_one_line(tmp_path, capsys, schema):
    state = {"names": ["figure2"], "quick": True}
    if schema is not None:
        state["schema"] = schema
    (tmp_path / "run.json").write_text(json.dumps(state))
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["--resume", str(tmp_path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err == (f"repro run: error: --resume: {tmp_path / 'run.json'} records run state version "
                   f"{schema!r}; this repro takes version {runner.RUN_STATE_VERSION}")
    assert not (tmp_path / "figure2.manifest.json").exists()
