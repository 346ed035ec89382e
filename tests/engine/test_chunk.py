"""One chunk on both transports: sized, carried and absorbed the same way — or refused whole.

A ``chunk_done`` that cannot be absorbed used to be found out *inside*
``settle``, after the chunk's outcomes and their checkpoint lines were in:
the ``ValueError`` killed the coordinator's handler thread before
``_check_done()`` and the plan hung.  The fake-worker tests here drive a real
:class:`Coordinator` over a real socket; at the parent commit each recorded
the whole chunk, lost its handler thread to a traceback and never finished.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import Checkpoint, Job, JobPlan, ParallelExecutor, RetryPolicy, SerialExecutor
from repro.engine.chunk import ChunkResult, guided_chunks, guided_size
from repro.engine.distributed import (
    PROTOCOL_VERSION,
    Coordinator,
    ProtocolError,
    outcome_to_wire,
    policy_from_wire,
    policy_to_wire,
    recv_frame,
    send_frame,
)
from repro.engine.driver import PlanDriver, run_chunk
from repro.engine.retry import JobOutcome
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry, ensure_core_metrics, use_registry
from repro.obs.progress import ProgressReporter, set_heartbeat

POLICY = RetryPolicy(max_attempts=2, backoff_base_s=0.001, jitter_frac=0.0)


def _draw(params, seed_seq):
    return float(np.random.default_rng(seed_seq).random()) + params.get("offset", 0.0)


def _plan(n=6):
    jobs = [Job(f"job/{i}", _draw, {"offset": float(i)}) for i in range(n)]
    return JobPlan(experiment="chunktest", seed=5, jobs=jobs, reduce=lambda v: v)


# ----------------------------------------------------------------- the size
@given(st.integers(0, 400), st.integers(1, 9))
def test_guided_chunks_are_the_sizes_a_coordinator_would_hand_out(n, fleet):
    chunks, pending = guided_chunks(list(range(n)), fleet), n
    assert [x for chunk in chunks for x in chunk] == list(range(n))  # every job once, in order
    for chunk in chunks:
        assert len(chunk) == guided_size(pending, fleet) >= 1
        pending -= len(chunk)


def test_the_pool_submits_the_guided_sequence_up_front():
    recorder = FlightRecorder(None, experiment="chunktest")
    set_flight_recorder(recorder)
    try:
        ParallelExecutor(workers=2).run(_plan(n=16))
    finally:
        set_flight_recorder(None)
    events = recorder.drain()
    gauges = [e for e in events if e["kind"] == "scheduler.gauge"]
    assert gauges[0]["outstanding_chunks"] == len(guided_chunks(list(range(16)), 2)) == 12
    assert [e["job"] for e in events if e["kind"] == "job.submitted"] == [
        f"job/{i}" for i in range(16)
    ]


# ------------------------------------------------------- the one wire form
def test_run_chunk_returns_the_frame_a_worker_sends(monkeypatch):
    from repro.engine import driver
    from repro.obs import profiler

    # run_chunk is a worker's entry point: keep its once-per-process set-up out of pytest's
    monkeypatch.setattr(profiler, "install_profiling", lambda: None)
    monkeypatch.setattr(driver, "_worker_announced", False)
    wire = run_chunk("chunktest", 5, _plan(n=3).jobs, POLICY)
    assert wire["type"] == "chunk_done"
    assert json.loads(json.dumps(wire)) == wire  # plain data: pickle and JSON carry the same thing
    result = ChunkResult.from_wire(wire)
    assert [o.name for o in result.outcomes] == ["job/0", "job/1", "job/2"]
    assert {o.name: o.value for o in result.outcomes} == SerialExecutor().run(_plan(n=3)).values
    assert result.registry.counter("engine_job_attempts_total").value == 3
    assert result.wall_s > 0 and result.cpu_s >= 0
    assert result.heartbeat["counts"] == {} and result.heartbeat["trials"] == 0
    assert [e["kind"] for e in result.flight if e["kind"].startswith("job.")] == [
        "job.attempt", "job.completed"] * 3


MALFORMED = {
    "outcomes-not-a-list": ({"outcomes": {"name": "job/0"}}, "'outcomes' is wrong-typed"),
    "heartbeat-trials": ({"heartbeat": {"trials": "x"}}, "'heartbeat' is wrong-typed.*'x'"),
    "heartbeat-counts": ({"heartbeat": {"counts": 7}}, "'heartbeat' is wrong-typed"),
    "heartbeat-count-values": (
        {"heartbeat": {"counts": {"jobs": "x"}}}, "'heartbeat' is wrong-typed"),
    "heartbeat-beats": ({"heartbeat": {"heartbeats": [1]}}, "'heartbeat' is wrong-typed"),
    "heartbeat-not-an-object": ({"heartbeat": [1]}, "'heartbeat' is wrong-typed"),
    "flight-event-without-kind": ({"flight": [{"pid": 1}]}, "'flight' is wrong-typed"),
    "flight-event-pid": ({"flight": [{"kind": "job.completed", "pid": "x"}]}, "'flight' is wrong"),
    "wall-seconds": ({"wall_s": "soon"}, "'wall_s' is wrong-typed"),
    "histogram-counts": (
        {"registry": [{"name": "h", "kind": "histogram", "buckets": 7, "count": 0, "sum": 0.0}]},
        "'registry' is wrong-typed.*not a registry snapshot row"),
    "not-an-object": ([1, 2], "chunk_done payload is not an object"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_the_decoder_names_the_field_it_refuses(case):
    wire, complaint = MALFORMED[case]
    with pytest.raises(ProtocolError, match=complaint):
        ChunkResult.from_wire(wire)


# ------------------------------------------------ refused whole, plan finishes
class _FakeWorker:
    """A hand-driven peer speaking the worker side of the frame protocol."""

    def __init__(self, address, host="fake", **hello):
        self.sock = socket.create_connection(address, timeout=5.0)
        send_frame(self.sock, {"type": "hello", "protocol": PROTOCOL_VERSION, "host": host,
                               "pid": 4242, **hello})
        self.welcome = recv_frame(self.sock)

    def pull(self):
        send_frame(self.sock, {"type": "next"})
        return recv_frame(self.sock)


def _good_rows():
    return ensure_core_metrics(MetricsRegistry()).snapshot()


UNABSORBABLE = {
    # correct outcomes, and one thing settle() used to trip over after recording them
    "histogram-with-other-bounds": lambda: {"registry": [
        {"name": "drs_probe_rtt_seconds", "kind": "histogram", "count": 0, "sum": 0.0,
         "min": None, "max": None, "buckets": [[1.0, 0], [2.0, 0], ["+inf", 0]]}]},
    "counter-the-run-holds-as-a-gauge": lambda: {"registry": _good_rows() + [
        {"name": "mc_iterations_per_second", "kind": "counter", "value": 1.0, "events": 1}]},
    "heartbeat-trials-not-a-number": lambda: {"registry": _good_rows(),
                                              "heartbeat": {"trials": "x"}},
    "heartbeat-counts-not-an-object": lambda: {"registry": _good_rows(),
                                               "heartbeat": {"counts": 7}},
}


@pytest.mark.parametrize("case", list(UNABSORBABLE))
def test_a_chunk_that_cannot_be_absorbed_is_refused_whole(
    case, tmp_path, monkeypatch, capsys, serving
):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    plan, path = _plan(n=6), tmp_path / "chunktest.checkpoint.jsonl"
    reference = SerialExecutor().run(_plan(n=6)).values
    registry = ensure_core_metrics(MetricsRegistry())
    reporter = ProgressReporter("chunktest", interval_s=1e12)  # the CLI always installs one
    recorder = FlightRecorder(None, experiment="chunktest")
    set_heartbeat(reporter)
    set_flight_recorder(recorder)
    started = time.monotonic()
    try:
        with use_registry(registry):
            driver = PlanDriver(plan, Checkpoint(path), "distributed", 0)
        server = Coordinator(driver, POLICY)
        address, done = serving(server)
        try:
            # pull before report lets a worker hold several chunks: this one takes the whole
            # plan, so its answer is the last settle — the one that has to notice "done"
            bad, names = _FakeWorker(address, host="bad"), []
            while (chunk := bad.pull())["type"] == "chunk":
                names += [job["name"] for job in chunk["jobs"]]
            assert chunk["type"] == "idle" and sorted(names) == sorted(reference)
            outcomes = [outcome_to_wire(JobOutcome(name, ok=True, value=reference[name]))
                        for name in names]
            send_frame(bad.sock, {"type": "chunk_done", "outcomes": outcomes,
                                  **UNABSORBABLE[case]()})
            assert recv_frame(bad.sock) is None, "the coordinator kept the peer connected"
            # nothing of the refused chunk was recorded
            assert not driver.values and not path.exists()
            assert registry.counter("engine_job_attempts_total").value == 0

            good = _FakeWorker(address, host="good")
            while (reply := good.pull())["type"] != "shutdown":
                assert reply["type"] == "chunk", "the second worker was left idle: the plan hangs"
                send_frame(good.sock, {"type": "chunk_done", "outcomes": [
                    outcome_to_wire(JobOutcome(job["name"], ok=True, value=reference[job["name"]]))
                    for job in reply["jobs"]]})
            assert done.wait(timeout=5.0)
        finally:
            server.stop()
    finally:
        set_flight_recorder(None)
        set_heartbeat(None)
    assert time.monotonic() - started < 10.0
    assert crashes == [], "a handler thread died with a traceback"
    assert driver.values == reference and not driver.unsettled
    lines = [json.loads(line)["job"] for line in path.read_text().splitlines()]
    assert sorted(lines) == sorted(reference)  # each job checkpointed exactly once
    events = recorder.drain()
    (left,) = [e for e in events if e["kind"] == "worker.leave" and e["host"] == "bad"]
    assert left["reason"] == "disconnect" and left["requeued"] == len(names) and left["jobs"] == 0
    assert sorted(e["job"] for e in events if e["kind"] == "job.stolen") == sorted(names)
    assert "dropping bad/4242: chunk_done" in capsys.readouterr().err


# ------------------------------------------------------------ the handshake
@pytest.fixture
def server(serving):
    coordinator = Coordinator(PlanDriver(_plan(n=2), None, "distributed", 0), POLICY)
    serving(coordinator)
    return coordinator


@pytest.mark.parametrize(
    "hello,complaint",
    [
        ({"pid": "x"}, "hello field 'pid' is wrong-typed"),
        ({"host": 7}, "hello field 'host' is wrong-typed"),
        ({"protocol": PROTOCOL_VERSION - 1}, "hello field 'protocol' is 1"),
        ({"protocol": "two"}, "hello field 'protocol' is wrong-typed"),
    ],
    ids=["pid-not-a-number", "host-not-a-string", "a-v1-peer", "protocol-not-a-number"],
)
def test_a_malformed_hello_is_refused_at_the_handshake(server, hello, complaint, monkeypatch, capsys):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    peer = _FakeWorker(server.address, **hello)
    assert peer.welcome is None, "the coordinator welcomed a peer it cannot serve"
    assert crashes == [] and not server.core.workers
    assert complaint in capsys.readouterr().err
    assert _FakeWorker(server.address).welcome["protocol"] == PROTOCOL_VERSION == 2


@pytest.mark.parametrize(
    "payload",
    [{"max_attempts": 2, "patience": 1}, {"max_attempts": "x"}, {"timeout_s": "soon"},
     {"backoff_factor": None}, {"max_attempts": 0}, ["max_attempts"], None],
    ids=["unknown-field", "attempts-a-string", "timeout-a-string", "factor-null",
         "a-value-the-policy-refuses", "a-list", "null"],
)
def test_a_malformed_policy_is_a_protocol_error(payload):
    with pytest.raises(ProtocolError, match="policy payload is malformed"):
        policy_from_wire(payload)
    assert policy_from_wire(json.loads(json.dumps(policy_to_wire(POLICY)))) == POLICY
