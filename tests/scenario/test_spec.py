"""Tests for scenario spec parsing and validation."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.scenario import ScenarioError, ScenarioSpec, Warmup, load_scenario
from repro.scenario.spec import ROUTING_PROTOCOLS, WORKLOADS


def _minimal(**overrides):
    raw = {"name": "t", "nodes": 4, "duration_s": 10.0}
    raw.update(overrides)
    return raw


def test_minimal_spec_defaults():
    spec = ScenarioSpec.from_dict(_minimal())
    assert spec.protocol_kind == "static"
    assert spec.workload_kind == "none"
    assert spec.faults == ()
    assert spec.loss_rate == 0.0 and spec.seed == 0


def test_full_spec_roundtrip():
    spec = ScenarioSpec.from_dict(
        _minimal(
            protocol={"kind": "drs", "sweep_period_s": 0.5},
            workload={"kind": "stream", "src": 0, "dst": 1},
            faults=[{"at": 5.0, "fail": "hub0"}, {"at": 2.0, "repair": "hub0"}],
            loss_rate=0.01,
            seed=9,
        )
    )
    assert spec.protocol_options == {"sweep_period_s": 0.5}
    assert spec.workload_options == {"src": 0, "dst": 1}
    # fault steps sorted by time
    assert [s.at for s in spec.faults] == [2.0, 5.0]
    assert spec.faults[0].action == "repair"


@pytest.mark.parametrize(
    "mutation,message",
    [
        ({"nodes": 1}, "nodes"),
        ({"duration_s": 0}, "duration_s"),
        ({"protocol": {"kind": "ospf"}}, "protocol.kind"),
        ({"protocol": "drs"}, "protocol"),
        ({"workload": {"kind": "webserver"}}, "workload.kind"),
        ({"faults": [{"fail": "hub0"}]}, "faults[0]"),
        ({"faults": [{"at": 99.0, "fail": "hub0"}]}, "faults[0].at"),
        ({"faults": [{"at": 1.0, "fail": "hub0", "repair": "hub1"}]}, "faults[0]"),
        ({"loss_rate": 1.5}, "loss_rate"),
    ],
)
def test_invalid_specs_rejected(mutation, message):
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(_minimal(**mutation))
    assert message.split(".")[0].split("[")[0] in str(err.value)


@pytest.mark.parametrize(
    "mutation,field",
    [
        # non-finite numbers pass a plain `<= 0` check: a NaN duration hung the run
        ({"duration_s": float("nan")}, "duration_s"),
        ({"duration_s": float("inf")}, "duration_s"),
        ({"faults": [{"at": float("nan"), "fail": "hub0"}]}, "faults[0].at"),
        ({"faults": [{"at": "soon", "fail": "hub0"}]}, "faults[0].at"),
        ({"seed": "abc"}, "seed"),
        ({"seed": 1.9}, "seed"),
        ({"seed": -1}, "seed"),
        ({"loss_rate": "x"}, "loss_rate"),
        ({"bandwidth_bps": "fast"}, "bandwidth_bps"),
        ({"bandwidth_bps": 10**400}, "bandwidth_bps"),
        ({"nodes": True}, "nodes"),
        ({"warmup": 1.0}, "warmup"),
        ({"warmup": {"until_s": float("nan")}}, "warmup.until_s"),
        ({"warmup": {"until_s": 10.0}}, "warmup.until_s"),
        ({"warmup": {"until_s": 1.0, "at": 2.0}}, "warmup"),
        ({"warmup": {"until_s": 1.0, "fail": "nic1.0"}}, "warmup.fail"),
        ({"warmup": {"until_s": 1.0, "fail_exactly": 1.5}}, "warmup.fail_exactly"),
        ({"warmup": {"until_s": 1.0, "fail_exactly": 11}}, "warmup.fail_exactly"),
        ({"warmup": {"until_s": 1.0, "fail": ["hub0"], "fail_exactly": 1}}, "fail_exactly"),
        ({"window_s": [5.0, 2.0]}, "window_s"),
        ({"window_s": [0.0, 20.0]}, "window_s"),
        ({"window_s": [0.0, float("inf")]}, "window_s[1]"),
        ({"window_s": 3.0}, "window_s"),
        ({"ping": 1}, "ping"),
        ({"trace": "no"}, "trace"),
        ({"workload": {"kind": "stream", "max_retries": "x"}}, "workload.max_retries"),
        ({"workload": {"kind": "stream", "window_segments": 0}}, "workload.window_segments"),
        ({"workload": {"kind": "stream", "interval_s": 0}}, "workload.interval_s"),
        ({"workload": {"kind": "stream", "dst": 4}}, "src/dst"),
        # every protocol and workload option is checked against its config field, then by the config
        ({"protocol": {"kind": ["drs"]}}, "protocol.kind"),
        ({"protocol": {"kind": "reactive", "timeout_s": -1}}, "protocol.timeout_s"),
        ({"protocol": {"kind": "linkstate", "hello_interval_s": 0}}, "protocol.hello_interval_s"),
        ({"protocol": {"kind": "drs", "sweep_period_s": float("nan")}}, "protocol.sweep_period_s"),
        ({"protocol": {"kind": "drs", "path_check_period_s": 0}}, "protocol.path_check_period_s"),
        ({"protocol": {"kind": "drs", "probe_retries": True}}, "protocol.probe_retries"),
        ({"protocol": {"kind": "drs", "probe_retries": 1.5}}, "protocol.probe_retries"),
        ({"protocol": {"kind": "drs", "notify_peers": "yes"}}, "protocol.notify_peers"),
        ({"workload": {"kind": "voicemail", "subscribers": 0}}, "workload.subscribers"),
        ({"workload": {"kind": "voicemail", "call_rate_per_s": 1e400}}, "workload.call_rate_per_s"),
        ({"workload": {"kind": "none", "src": 0}}, "none workload takes no options"),
        ({"nodes": 2, "workload": {"kind": "mpi"}}, "nodes >= 3"),
        # the name becomes the artifact file names under --metrics-out
        ({"name": "../escaped"}, "name"),
        ({"name": "a/b"}, "name"),
        ({"name": ""}, "name"),
        ({"name": "."}, "name"),
        ({"name": ".."}, "name"),
    ],
)
def test_malformed_fields_raise_an_error_naming_them(mutation, field):
    # from_dict alone: a spec that would hang or fail at run time is refused here
    with pytest.raises(ScenarioError, match=re.escape(field)):
        ScenarioSpec.from_dict(_minimal(**mutation))


def test_options_are_checked_not_converted():
    # an int is a number where a float is declared, None is allowed where the field is optional,
    # and the options are kept as given, so a manifest shows what the file said
    options = {"sweep_period_s": 1, "probe_retries": 3, "bandwidth_budget": None, "notify_peers": True}
    spec = ScenarioSpec.from_dict(_minimal(protocol={"kind": "drs", **options}))
    assert spec.protocol_options == options and type(spec.protocol_options["sweep_period_s"]) is int


def test_run_shaping_fields_parse():
    spec = ScenarioSpec.from_dict(
        _minimal(
            warmup={"until_s": 1.0, "fail_exactly": 3},
            window_s=[0.5, 4],
            ping=True,
            trace=False,
            workload={"kind": "stream", "max_retries": 12, "window_segments": 16},
        )
    )
    assert spec.warmup == Warmup(1.0, (), 3)
    assert spec.window_s == (0.5, 4.0) and spec.ping and not spec.trace
    named = ScenarioSpec.from_dict(_minimal(warmup={"until_s": 2, "fail": ["nic1.0", "hub1"]}))
    assert named.warmup == Warmup(2.0, ("nic1.0", "hub1"))


def test_missing_required_field():
    with pytest.raises(ScenarioError, match="name"):
        ScenarioSpec.from_dict({"nodes": 4, "duration_s": 10.0})


def test_non_dict_rejected():
    with pytest.raises(ScenarioError):
        ScenarioSpec.from_dict([1, 2, 3])


def test_load_scenario_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_minimal()))
    assert load_scenario(path).name == "t"


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(path)


def test_shipped_scenarios_parse():
    scenario_dir = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
    files = sorted(scenario_dir.glob("*.json"))
    assert len(files) >= 4
    for path in files:
        spec = load_scenario(path)
        assert spec.nodes >= 2


def options_table(axis, table):
    """``table``'s option sets as the Markdown table ``docs/scenarios.md`` shows under ``axis``."""
    rows = [f"| `{axis}.kind` | option | type | default |", "|---|---|---|---|"]
    for kind, row in table.items():
        config = row.config()
        if config is None:
            rows.append(f"| `{kind}` | no options | | |")
        for index, option in enumerate(fields(config) if config else ()):
            label = f"`{kind}` (`{config.__name__}`)" if index == 0 else ""
            annotation = option.type.replace("|", "\\|")
            rows.append(f"| {label} | `{option.name}` | `{annotation}` | `{json.dumps(option.default)}` |")
    return "\n".join(rows)


@pytest.mark.parametrize("axis,table", [("protocol", ROUTING_PROTOCOLS), ("workload", WORKLOADS)])
def test_the_option_tables_are_documented_as_declared(axis, table):
    docs = (Path(__file__).resolve().parents[2] / "docs" / "scenarios.md").read_text()
    assert options_table(axis, table) in docs
