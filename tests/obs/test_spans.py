"""Unit tests for the causal span layer and its Chrome-trace export."""

import json

import pytest

from repro.obs.flightrecorder import read_jsonl
from repro.obs.spans import (
    SPAN_CATEGORY,
    Span,
    SpanLog,
    span_log,
    spans_from_entries,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.simkit import Simulator, TraceRecorder


def _log():
    sim = Simulator()
    return sim, SpanLog(TraceRecorder(sim))


def test_begin_end_emits_one_trace_entry():
    sim, log = _log()
    span = log.begin("work", "failover", node=3, peer=7)
    assert not span.closed and span.duration is None
    sim.schedule(2.5, lambda: log.end(span, outcome="two-hop"))
    sim.run()
    assert span.closed and span.duration == pytest.approx(2.5)
    assert span.attrs == {"peer": 7, "outcome": "two-hop"}
    (entry,) = log.trace.entries(SPAN_CATEGORY)
    assert entry.fields["span_id"] == span.span_id
    assert entry.fields["start"] == 0.0 and entry.fields["end"] == 2.5


def test_end_is_idempotent():
    _, log = _log()
    span = log.closed("probe", "probe", start=1.0, end=2.0)
    log.end(span, end=99.0)  # second end must not move or re-emit
    assert span.end == 2.0
    assert log.trace.count(SPAN_CATEGORY) == 1


def test_child_inherits_incident_from_parent():
    _, log = _log()
    root = log.incident_begin("hub0", kind="hub")
    child = log.begin("failover", "failover", parent=root)
    grandchild = log.begin("discovery", "discovery", parent=child)
    assert root.incident_id == root.span_id
    assert child.incident_id == root.span_id
    assert grandchild.incident_id == root.span_id
    assert grandchild.parent_id == child.span_id


def test_find_incident_prefers_physical_component():
    _, log = _log()
    log.incident_begin("hub1", kind="hub")
    nic = log.incident_begin("nic5.0", kind="nic")
    assert log.find_incident(node=2, peer=5, network=0) is nic
    hub = log.find_incident(node=2, peer=3, network=1)
    assert hub is not None and hub.attrs["component"] == "hub1"
    # no physical match: falls back to the most recent open incident
    assert log.find_incident(node=0, peer=1, network=9) is nic
    log.incident_end("nic5.0")
    log.incident_end("hub1")
    assert log.find_incident(node=2, peer=5, network=0) is None


def test_flush_seals_open_spans_as_unfinished():
    sim, log = _log()
    log.incident_begin("hub0")
    sim.schedule(4.0, lambda: None)
    sim.run()
    (flushed,) = log.flush()
    assert flushed.end == 4.0 and flushed.attrs["unfinished"] is True
    assert log.flush() == []  # nothing left open


def test_span_log_is_shared_per_recorder():
    sim = Simulator()
    trace = TraceRecorder(sim)
    assert span_log(trace) is span_log(trace)
    assert span_log(TraceRecorder(sim)) is not span_log(trace)


def test_wants_follows_the_recorder():
    sim = Simulator()
    trace = TraceRecorder(sim)
    log = span_log(trace)
    assert log.wants()
    trace.enabled = False
    assert not log.wants()


def test_spans_round_trip_through_jsonl(tmp_path):
    from repro.obs.artifacts import write_trace_jsonl

    sim, log = _log()
    root = log.incident_begin("nic1.0", kind="nic")
    child = log.begin("failover", "failover", node=2, parent=root, peer=1)
    sim.schedule(0.5, lambda: log.end(child, outcome="direct-swap"))
    sim.schedule(3.0, lambda: log.incident_end("nic1.0"))
    sim.run()
    path = write_trace_jsonl(log.trace, tmp_path / "run.trace.jsonl")
    rebuilt = spans_from_entries(read_jsonl(path))
    assert [s.span_id for s in rebuilt] == [root.span_id, child.span_id]
    got = {s.span_id: s for s in rebuilt}
    assert got[child.span_id].parent_id == root.span_id
    assert got[child.span_id].incident_id == root.span_id
    assert got[child.span_id].attrs["outcome"] == "direct-swap"
    assert got[root.span_id].duration == pytest.approx(3.0)
    # live entries and dict rows reconstruct identically
    assert spans_from_entries(log.trace.entries()) == rebuilt


def test_a_torn_trace_tail_is_skipped(tmp_path):
    # write_trace_jsonl is a plain open("w"): a kill mid-write leaves exactly this
    path = tmp_path / "t.trace.jsonl"
    path.write_text('{"time": 1.0, "category": "fault"}\n{"time": 2.0, "categ')
    assert read_jsonl(path) == [{"time": 1.0, "category": "fault"}]


def test_chrome_trace_layout_and_validation():
    spans = [
        Span(1, "incident:hub0", "fault", 1.0, 5.0, attrs={"component": "hub0"}),
        Span(2, "failover", "failover", 2.0, 3.0, parent_id=1, incident_id=1, node=4),
    ]
    instants = [{"category": "drs-detect", "time": 2.0, "node": 4, "peer": 0}]
    doc = to_chrome_trace(spans, instants)
    assert validate_chrome_trace(doc) == []
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in complete} == {0, 5}  # cluster lane + node4
    by_name = {e["name"]: e for e in complete}
    assert by_name["failover"]["ts"] == pytest.approx(2e6)
    assert by_name["failover"]["dur"] == pytest.approx(1e6)
    assert by_name["failover"]["args"]["incident_id"] == 1
    assert any(e["ph"] == "i" and e["name"] == "drs-detect" for e in doc["traceEvents"])
    names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert {"cluster", "node4", "fault", "failover"} <= names


def test_open_span_exported_to_horizon():
    spans = [
        Span(1, "incident:hub0", "fault", 1.0, None),
        Span(2, "later", "failover", 6.0, 8.0),
    ]
    doc = to_chrome_trace(spans)
    open_event = next(e for e in doc["traceEvents"] if e["name"] == "incident:hub0")
    assert open_event["dur"] == pytest.approx((8.0 - 1.0) * 1e6)


def test_write_chrome_trace_is_loadable_json(tmp_path):
    path = write_chrome_trace(tmp_path / "t.spans.json", [Span(1, "a", "fault", 0.0, 1.0)])
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace([]) != []
    bad = {
        "traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1},
            {"ph": "X", "name": "x", "pid": 1, "ts": -1.0, "dur": None},
            {"ph": "X", "pid": "one", "ts": 0.0, "dur": 1.0},
        ]
    }
    problems = validate_chrome_trace(bad)
    assert len(problems) >= 4
    assert any("unknown ph" in p for p in problems)
    assert any("dur" in p for p in problems)
