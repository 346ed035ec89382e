"""End-to-end tests: artifact emission from both CLIs and ``repro obs``."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.runner import main as experiments_main
from repro.obs import load_manifest, uninstall_profiling
from repro.obs.cli import main as obs_main
from repro.scenario.cli import main as sim_main


@pytest.fixture(autouse=True)
def _no_profiling_leak():
    # both CLIs install the global profiling hook; undo it after each test
    yield
    uninstall_profiling()


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    spec = {
        "name": "obs-smoke",
        "nodes": 4,
        "duration_s": 4.0,
        "protocol": {"kind": "drs", "sweep_period_s": 0.2, "probe_timeout_s": 0.01},
        "faults": [{"at": 1.0, "fail": "nic1.0"}, {"at": 3.0, "repair": "nic1.0"}],
    }
    path = tmp_path_factory.mktemp("spec") / "obs_smoke.json"
    path.write_text(json.dumps(spec))
    return path


def test_experiments_runner_writes_manifest_and_metrics(tmp_path, capsys):
    assert experiments_main(["figure3", "--quick", "--out", str(tmp_path)]) == 0
    manifest = load_manifest(tmp_path / "figure3.manifest.json")
    assert manifest.kind == "experiment"
    assert manifest.seed == 2000
    assert manifest.config_hash and manifest.wall_seconds > 0
    snapshot_names = {
        json.loads(line)["name"]
        for line in (tmp_path / "figure3.metrics.jsonl").read_text().splitlines()
    }
    # the stable core schema is present even though figure3 is pure Monte Carlo
    assert {"drs_probe_rtt_seconds", "drs_failover_latency_seconds", "sim_events_per_second"} <= snapshot_names
    mc_rows = [
        json.loads(line)
        for line in (tmp_path / "figure3.metrics.jsonl").read_text().splitlines()
        if json.loads(line)["name"] == "mc_iterations_total"
    ]
    assert mc_rows[0]["value"] > 0
    assert "# TYPE drs_probe_rtt_seconds histogram" in (tmp_path / "figure3.metrics.prom").read_text()


def test_experiments_runner_no_metrics_flag(tmp_path):
    assert experiments_main(["figure3", "--quick", "--no-metrics", "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "figure3.manifest.json").exists()
    assert not list(tmp_path.glob("*.metrics.*"))


def test_drs_sim_metrics_out(tmp_path, scenario_file, capsys):
    obs_dir = tmp_path / "obs"
    assert sim_main([str(scenario_file), "--metrics-out", str(obs_dir)]) == 0
    manifest = load_manifest(obs_dir / "obs-smoke.manifest.json")
    assert manifest.kind == "scenario"
    assert manifest.event_count > 0
    assert manifest.extra["source"] == str(scenario_file)
    parsed = [
        json.loads(line)
        for line in (obs_dir / "obs-smoke.metrics.jsonl").read_text().splitlines()
    ]
    rows = {row["name"]: row for row in parsed if "labels" not in row}
    # a live DRS scenario exercises the probe path and the simulator profile
    assert rows["drs_probe_rtt_seconds"]["count"] > 0
    assert rows["drs_probes_sent_total"]["value"] > 0
    assert rows["sim_events_total"]["value"] == manifest.event_count
    assert rows["sim_events_per_second"]["value"] > 0
    trace_lines = (obs_dir / "obs-smoke.trace.jsonl").read_text().splitlines()
    assert trace_lines and all("category" in json.loads(line) for line in trace_lines)


def test_obs_cli_renders_directory(tmp_path, scenario_file, capsys):
    obs_dir = tmp_path / "obs"
    assert sim_main([str(scenario_file), "--metrics-out", str(obs_dir)]) == 0
    capsys.readouterr()
    assert obs_main([str(obs_dir)]) == 0
    out = capsys.readouterr().out
    assert "manifest: obs-smoke.manifest.json" in out
    assert "metrics: obs-smoke.metrics.jsonl" in out
    assert "prometheus snapshot: obs-smoke.metrics.prom" in out
    assert "trace: obs-smoke.trace.jsonl" in out
    assert "drs_probe_rtt_seconds" in out


@pytest.fixture
def torn_artifacts(tmp_path, scenario_file, capsys):
    """A scenario's trace and metrics snapshot, each killed mid-way through its last line."""
    assert sim_main([str(scenario_file), "--metrics-out", str(tmp_path)]) == 0
    torn = []
    for name in ("obs-smoke.trace.jsonl", "obs-smoke.metrics.jsonl"):
        path = tmp_path / name
        text = path.read_text()
        path.write_text(text[: text.rstrip().rindex("\n") + 12])
        torn.append(path)
    capsys.readouterr()
    return torn


def test_export_trace_renders_the_valid_prefix_of_a_torn_trace(torn_artifacts, tmp_path, capsys):
    trace, _ = torn_artifacts
    out = tmp_path / "torn.spans.json"
    assert obs_main(["export-trace", str(trace), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["traceEvents"]
    assert "span(s)" in capsys.readouterr().out


def test_postmortem_reads_the_valid_prefix_of_a_torn_trace(torn_artifacts, capsys):
    trace, _ = torn_artifacts
    assert obs_main(["postmortem", str(trace), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["episodes"]


def test_bare_obs_renders_torn_trace_and_metrics_like_torn_flight(torn_artifacts, capsys):
    trace, metrics = torn_artifacts
    assert obs_main([str(trace), str(metrics)]) == 0
    captured = capsys.readouterr()
    assert "trace: obs-smoke.trace.jsonl" in captured.out
    assert "metrics: obs-smoke.metrics.jsonl" in captured.out
    assert captured.err == ""
    assert obs_main(["--json", str(trace), str(metrics)]) == 0
    kinds = [doc["kind"] for doc in json.loads(capsys.readouterr().out)]
    assert kinds == ["trace", "metrics"]


def test_obs_cli_errors(tmp_path, capsys):
    assert obs_main([str(tmp_path / "missing.manifest.json")]) == 1
    assert obs_main([str(tmp_path)]) == 1  # empty dir: nothing to show
    stray = tmp_path / "notes.txt"
    stray.write_text("hello")
    assert obs_main([str(stray)]) == 1
    assert "unrecognized artifact" in capsys.readouterr().err
    # a word that is not a verb is a path, and a missing one says so
    assert obs_main(["retired-verb", "x"]) == 1
    assert "error: retired-verb: no such file" in capsys.readouterr().err


def test_python_m_repro_obs_verb(tmp_path, scenario_file, capsys):
    obs_dir = tmp_path / "obs"
    assert sim_main([str(scenario_file), "--metrics-out", str(obs_dir)]) == 0
    capsys.readouterr()
    assert repro_main(["obs", str(obs_dir / "obs-smoke.manifest.json")]) == 0
    assert "manifest: obs-smoke.manifest.json" in capsys.readouterr().out
    assert repro_main(["bogus"]) == 2
    assert repro_main([]) == 0


@pytest.mark.parametrize("verb", [["watch", "--once"], ["export-trace"], ["precision"], []],
                         ids=["watch", "export-trace", "precision", "bare"])
def test_every_verb_refuses_a_schema_1_stream_in_one_line(tmp_path, capsys, verb):
    # flight schema 1 carried one stats.cell event per cell
    cells = [{"t": 0.1 * i, "kind": "stats.cell", "pid": 1, "seq": i, "n": 8, "f": 2 + i,
              "trials": 1000, "point": 0.9, "half_width": 0.03, "done": True} for i in range(2)]
    path = tmp_path / "old.flight.jsonl"
    path.write_text("".join(json.dumps(cell) + "\n" for cell in cells))
    assert repro_main(["obs", *verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: a 'stats.cell' event is flight schema 1; this reader takes schema 3")
    assert not (tmp_path / "old.chrome.json").exists()


@pytest.mark.parametrize("verb", [["watch", "--once"], ["export-trace"], ["precision"], []],
                         ids=["watch", "export-trace", "precision", "bare"])
def test_every_verb_refuses_a_schema_2_stream_in_one_line(tmp_path, capsys, verb):
    # flight schema 2 published one stats.grid event per group, its n a scalar label
    grid = {"t": 0.1, "kind": "stats.grid", "pid": 1, "seq": 1, "n": 8, "trials": 1000,
            "confidence": 0.95, "f": [2, 3], "successes": [900, 880], "point": [0.9, 0.88],
            "half_width": [0.03, 0.03], "done": [True, True]}
    path = tmp_path / "old.flight.jsonl"
    path.write_text(json.dumps(grid) + "\n")
    assert repro_main(["obs", *verb, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: a 'stats.grid' event with a scalar 'n' is flight "
                          f"schema 2; this reader takes schema 3")
    assert not (tmp_path / "old.chrome.json").exists()
