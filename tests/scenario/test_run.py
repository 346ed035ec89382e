"""Tests for scenario execution and the `repro sim` verb."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments.desvalidation import VALIDATION_CONFIG, one_replicate
from repro.obs import uninstall_profiling
from repro.scenario import ScenarioError, ScenarioSpec, run_scenario
from repro.scenario.cli import main
from repro.scenario.run import peer_nic_failures
from repro.simkit import Simulator


def _spec(**overrides):
    raw = {
        "name": "test",
        "nodes": 4,
        "duration_s": 8.0,
        "protocol": {"kind": "drs", "sweep_period_s": 0.2, "probe_timeout_s": 0.01},
    }
    raw.update(overrides)
    return ScenarioSpec.from_dict(raw)


def test_bare_scenario_runs():
    report = run_scenario(_spec())
    assert report.duration_s == 8.0
    assert report.faults_injected == 0
    assert report.wire_bits > 0  # DRS probes ran
    assert "metric" in report.render()


def test_fault_script_executes_and_repairs():
    report = run_scenario(_spec(faults=[{"at": 2.0, "fail": "nic1.0"}, {"at": 5.0, "repair": "nic1.0"}]))
    assert report.faults_injected == 2
    assert report.routing_repairs >= 1
    assert report.repair_latencies and min(report.repair_latencies) >= 0


def test_unknown_component_rejected():
    with pytest.raises(ScenarioError, match="unknown component"):
        run_scenario(_spec(faults=[{"at": 1.0, "fail": "nic99.7"}]))
    with pytest.raises(ScenarioError, match="unknown component"):
        run_scenario(_spec(warmup={"until_s": 1.0, "fail": ["hub2"]}))


def test_the_run_stops_at_the_window_ends_the_boundary_and_the_end(monkeypatch):
    stops = []
    real_run = Simulator.run

    def run(self, until=None, max_events=None):
        stops.append(until)
        return real_run(self, until, max_events)

    monkeypatch.setattr(Simulator, "run", run)
    report = run_scenario(_spec())
    assert stops == [8.0] and report.window_bits == () and report.ping_ok is None
    stops.clear()
    report = run_scenario(
        _spec(warmup={"until_s": 2.0, "fail": ["nic1.0"]}, window_s=[1.0, 2.0], ping=True)
    )
    # the boundary step is applied between two runs, then the ping gets its own
    assert stops == [1.0, 2.0, 8.0, pytest.approx(8.2)]
    assert report.faults_injected == 1
    assert len(report.window_bits) == 2 and min(report.window_bits) > 0
    assert all(record.time > 2.0 for record in report.repairs + report.detections)
    assert 0 < report.time_to_repair(0, 1) < 1.0
    assert report.ping_ok is True
    assert "ping 0 -> 1" in report.render()


def test_time_to_repair_without_a_warmup_counts_from_the_start():
    report = run_scenario(_spec(faults=[{"at": 2.0, "fail": "nic1.0"}]))
    assert 2.0 < report.time_to_repair(0, 1) < 3.0
    assert report.time_to_repair(0, 3) is None


def test_time_to_repair_reads_the_route_change_records_of_the_table_driven_baselines():
    # distvector and linkstate name the route's destination `dst`, not `peer`
    protocol = {"kind": "distvector", "advertise_interval_s": 0.5, "timeout_s": 1.5}
    report = run_scenario(_spec(protocol=protocol, warmup={"until_s": 2.0, "fail": ["nic1.0"]}))
    assert report.repairs and all("dst" in entry.fields for entry in report.repairs)
    assert 0 < report.time_to_repair(0, 1) < 2.5


def test_peer_nic_failures_fails_a_different_peer_per_repeat():
    spec = _spec(warmup={"until_s": 2.0})
    latency, reports = peer_nic_failures(spec, 3)
    assert [report.spec.warmup.fail for report in reports] == [("nic1.0",), ("nic2.0",), ("nic3.0",)]
    latencies = [report.time_to_repair(0, victim) for victim, report in enumerate(reports, 1)]
    assert latency == pytest.approx(np.mean(latencies)) and 0 < latency < 1.0


def test_the_json_grammar_runs_the_desval_replicate():
    # the same replicate as a scenario file would state it: same draw, same outcome
    for n, f, seed in ((6, 3, 1), (8, 2, 7), (4, 5, 3)):
        raw = {
            "name": "exact-f",
            "nodes": n,
            "duration_s": 3.0,
            "protocol": {"kind": "drs", **asdict(VALIDATION_CONFIG)},
            "warmup": {"until_s": 1.0, "fail_exactly": f},
            "ping": True,
            "trace": False,
            "seed": seed,
        }
        report = run_scenario(ScenarioSpec.from_dict(raw))
        assert report.ping_ok == one_replicate(n, f, np.random.default_rng(seed))
        assert report.faults_injected == f and report.repairs == []


def test_stream_workload_metrics():
    report = run_scenario(
        _spec(workload={"kind": "stream", "src": 0, "dst": 2, "interval_s": 0.2, "message_bytes": 128})
    )
    metrics = report.workload_metrics
    assert metrics["stream messages sent"] > 20
    assert metrics["stream messages delivered"] > 20


def test_stream_workload_validation():
    with pytest.raises(ScenarioError, match="src/dst"):
        run_scenario(_spec(workload={"kind": "stream", "src": 0, "dst": 0}))
    with pytest.raises(ScenarioError, match="unknown stream options"):
        run_scenario(_spec(workload={"kind": "stream", "sizee": 1}))


def test_voicemail_workload_runs():
    report = run_scenario(
        _spec(nodes=5, workload={"kind": "voicemail", "call_rate_per_s": 20.0, "message_bytes": 1000})
    )
    assert report.workload_metrics["voicemail operations"] > 20


def test_mpi_workload_runs():
    report = run_scenario(
        _spec(nodes=5, workload={"kind": "mpi", "iterations": 10, "compute_time_s": 0.01})
    )
    assert report.workload_metrics["mpi job completed"] is True


def test_bad_protocol_options_rejected():
    with pytest.raises(ScenarioError, match="bad protocol options"):
        run_scenario(_spec(protocol={"kind": "drs", "swep_period_s": 1.0}))
    with pytest.raises(ScenarioError, match="static protocol takes no options"):
        run_scenario(_spec(protocol={"kind": "static", "x": 1}))


def test_all_protocols_run():
    for protocol in ({"kind": "static"}, {"kind": "reactive"}, {"kind": "distvector"}, {"kind": "linkstate"}):
        report = run_scenario(_spec(protocol=protocol))
        assert report.duration_s == 8.0


def test_cli_single_report(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "cli", "nodes": 3, "duration_s": 2.0}))
    assert main([str(path)]) == 0
    assert "scenario: cli" in capsys.readouterr().out


def test_cli_compare_mode(tmp_path, capsys):
    paths = []
    for i, name in enumerate(("a", "b")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "nodes": 3, "duration_s": 2.0}))
        paths.append(str(path))
    assert main(paths + ["--compare"]) == 0
    out = capsys.readouterr().out
    assert "scenario comparison" in out and "a" in out and "b" in out


@pytest.mark.parametrize(
    "fields",
    [
        {"nodes": 1},
        {"protocol": {"kind": "reactive", "timeout_s": -1}},
        {"workload": {"kind": "voicemail", "subscribers": 0}},
        {"name": "../escaped"},
    ],
    ids=["nodes", "reactive-timeout", "voicemail-subscribers", "escaping-name"],
)
def test_cli_reports_spec_errors(tmp_path, capsys, fields):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "nodes": 4, "duration_s": 2.0, **fields}))
    try:
        assert main([str(path), "--metrics-out", str(tmp_path / "obs")]) == 2
    finally:
        uninstall_profiling()  # --metrics-out installs the global profiling hook
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error" in err and "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["bad.json"]  # no artifact, inside or out
