"""Unit tests for run manifests and artifact writers."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    RunManifest,
    load_manifest,
    spec_hash,
    write_metrics_files,
    write_trace_jsonl,
)
from repro.simkit import Simulator, TraceRecorder


def test_spec_hash_is_order_insensitive_and_stable():
    a = spec_hash({"x": 1, "y": [1, 2]})
    b = spec_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 16
    assert spec_hash({"x": 2, "y": [1, 2]}) != a


def test_manifest_build_write_load_roundtrip(tmp_path):
    manifest = RunManifest.build(
        name="figure2",
        kind="experiment",
        seed=2000,
        config={"mc_iterations": 100},
        wall_seconds=1.25,
        event_count=42,
        quick=True,
    )
    assert manifest.config_hash == spec_hash({"mc_iterations": 100})
    assert manifest.package_version
    assert manifest.extra == {"quick": True}

    path = manifest.write(tmp_path / "figure2.manifest.json")
    loaded = load_manifest(path)
    assert loaded.name == "figure2"
    assert loaded.seed == 2000
    assert loaded.event_count == 42
    assert loaded.extra == {"quick": True}
    assert loaded.config == {"mc_iterations": 100}


def test_load_manifest_preserves_unknown_keys(tmp_path):
    path = tmp_path / "m.json"
    raw = {
        "name": "x",
        "kind": "scenario",
        "seed": None,
        "config": {},
        "config_hash": "abc",
        "wall_seconds": 0.1,
        "event_count": 0,
        "package_version": "1.0.0",
        "future_field": "kept",
    }
    path.write_text(json.dumps(raw))
    loaded = load_manifest(path)
    assert loaded.extra["future_field"] == "kept"


def test_write_metrics_files_pair(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c").add(3)
    paths = write_metrics_files(reg, tmp_path, "run1")
    jsonl, prom = paths
    assert jsonl.name == "run1.metrics.jsonl" and prom.name == "run1.metrics.prom"
    row = json.loads(jsonl.read_text().splitlines()[0])
    assert row == {"name": "c", "kind": "counter", "value": 3.0, "events": 1}
    assert "# TYPE c counter" in prom.read_text()


def test_a_failed_metrics_write_leaves_the_previous_snapshot_whole(tmp_path):
    good = MetricsRegistry()
    good.counter("c").add(3)
    before = [path.read_bytes() for path in write_metrics_files(good, tmp_path, "run1")]
    bad = MetricsRegistry()
    bad.counter("c").add(4)
    bad.counter("d", labels={"k": object()}).add()  # its row cannot be JSON-encoded
    with pytest.raises(TypeError):
        write_metrics_files(bad, tmp_path, "run1")
    after = [(tmp_path / f"run1.metrics.{ext}").read_bytes() for ext in ("jsonl", "prom")]
    assert after == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run1.metrics.jsonl", "run1.metrics.prom"]


def test_write_trace_jsonl(tmp_path):
    sim = Simulator()
    trace = TraceRecorder(sim)
    sim.schedule(1.0, lambda: trace.record("fault", component="nic0", detail=object()))
    sim.run()
    path = write_trace_jsonl(trace, tmp_path / "run1.trace.jsonl")
    (line,) = path.read_text().splitlines()
    row = json.loads(line)
    assert row["time"] == 1.0 and row["category"] == "fault"
    assert row["component"] == "nic0"
    # non-serializable fields fall back to repr instead of crashing the dump
    assert "object" in row["detail"]


def test_a_failed_trace_write_leaves_the_previous_trace_whole(tmp_path):
    sim = Simulator()
    good = TraceRecorder(sim)
    good.record("fault", component="nic0")
    path = write_trace_jsonl(good, tmp_path / "run1.trace.jsonl")
    before = path.read_bytes()
    loop: list = []
    loop.append(loop)  # json.dumps raises ValueError on the circular reference
    bad = TraceRecorder(sim)
    bad.record("fault", component="nic1")
    bad.record("fault", component=loop)
    with pytest.raises(ValueError):
        write_trace_jsonl(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run1.trace.jsonl"]
