"""Flight recorder: event stream integrity across workers, crashes, and replays."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Job, JobPlan, ParallelExecutor, RetryPolicy, SerialExecutor
from repro.obs.flightrecorder import (
    EVENT_KINDS,
    FlightRecorder,
    flight_summary,
    read_flight_events,
    set_flight_recorder,
)
from repro.obs.spans import flight_to_chrome_trace, validate_chrome_trace

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001, jitter_frac=0.0)


def _draw(params, seed_seq):
    return float(np.random.default_rng(seed_seq).random())


def _draw_once_two_workers_met(params, seed_seq):
    """``_draw``, after two pool workers have each started a job.

    The first job holds its worker until a second worker takes another, so
    the pool cannot run every job on one worker however the OS schedules it.
    ``params["deadline"]`` (wall clock) caps the wait of all jobs together.
    """
    met = Path(params["dir"])
    (met / str(os.getpid())).touch()
    while len(list(met.iterdir())) < 2 and time.time() < params["deadline"]:
        time.sleep(0.002)
    return _draw(params, seed_seq)


def _worker_killer(params, seed_seq):
    """Kills its host process once (first run), then returns normally."""
    marker = Path(params["marker"])
    if not marker.exists():
        marker.write_text("killed worker")
        os._exit(1)
    return _draw(params, seed_seq)


def _plan(jobs, experiment="flight", seed=5):
    return JobPlan(experiment=experiment, seed=seed, jobs=jobs, reduce=lambda v: v)


class _ProxySink:
    """A stand-in for the recorder's sink: what a subclass does not override goes to the real one."""

    def __init__(self, sink):
        self._sink = sink

    def __getattr__(self, name):
        return getattr(self._sink, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._sink.close()


def _use_sink(monkeypatch, path, proxy):
    """Hand ``path.open("w")`` (the recorder opening its sink) a ``proxy`` of the real file."""
    real_open = Path.open

    def proxied_open(self, mode="r", *args, **kwargs):
        sink = real_open(self, mode, *args, **kwargs)
        return proxy(sink) if self == path and mode == "w" else sink

    monkeypatch.setattr(Path, "open", proxied_open)


@pytest.fixture
def recorder(tmp_path):
    rec = FlightRecorder(tmp_path / "run.flight.jsonl", experiment="flight")
    set_flight_recorder(rec)
    yield rec
    set_flight_recorder(None)
    rec.close()


class TestRecorderCore:
    def test_emit_writes_jsonl_with_monotone_seq(self, tmp_path):
        rec = FlightRecorder(tmp_path / "a.flight.jsonl", experiment="exp")
        rec.emit("plan.begin", jobs=2)
        rec.emit("job.submitted", job="j1")
        summary = rec.close()
        events = read_flight_events(tmp_path / "a.flight.jsonl")
        assert [e["kind"] for e in events] == ["plan.begin", "job.submitted", "run.end"]
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert all(e["experiment"] == "exp" for e in events)
        assert summary["events"] == 3

    def test_emit_after_close_is_dropped(self, tmp_path):
        rec = FlightRecorder(tmp_path / "a.flight.jsonl")
        rec.close()
        rec.emit("job.attempt", job="late")
        assert [e["kind"] for e in read_flight_events(tmp_path / "a.flight.jsonl")] == ["run.end"]

    def test_buffer_mode_drain_hands_events_to_parent_ingest(self, tmp_path):
        worker = FlightRecorder(None, experiment="exp")
        worker.emit("worker.spawn")
        worker.emit("job.completed", job="j1", ok=True)
        payload = worker.drain()
        assert worker.drain() == []  # drain clears
        assert all("seq" not in e for e in payload)  # parent owns global order

        parent = FlightRecorder(tmp_path / "p.flight.jsonl")
        parent.emit("plan.begin")
        assert parent.ingest(payload) == 2
        parent.close()
        events = read_flight_events(tmp_path / "p.flight.jsonl")
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        assert events[2]["kind"] == "job.completed"

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "torn.flight.jsonl"
        rec = FlightRecorder(path, experiment="exp")
        rec.emit("plan.begin")
        rec.emit("job.completed", job="j1")
        rec.close()
        # simulate SIGKILL mid-write: append a torn final line
        with path.open("a") as sink:
            sink.write('{"t": 1.0, "kind": "job.comp')
        events = read_flight_events(path)
        assert [e["kind"] for e in events] == ["plan.begin", "job.completed", "run.end"]
        assert flight_summary(events)["events"] == 3

    def test_an_appending_recorder_cuts_a_torn_tail_and_continues_seq(self, tmp_path):
        path = tmp_path / "resumed.flight.jsonl"
        rec = FlightRecorder(path, experiment="exp")
        rec.emit("plan.begin")
        rec.emit("job.completed", job="j1")
        whole = path.read_bytes()
        with path.open("a") as sink:  # killed mid-write
            sink.write('{"t": 1.0, "kind": "job.comp')
        resumed = FlightRecorder(path, experiment="exp", append=True)
        resumed.emit("plan.begin")
        resumed.close()
        assert path.read_bytes().startswith(whole)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(e["kind"], e["seq"]) for e in events] == [
            ("plan.begin", 1), ("job.completed", 2), ("plan.begin", 3), ("run.end", 4),
        ]
        assert resumed.summary()["events"] == 2  # its own tally

    def test_unclosed_exit_loses_nothing(self, tmp_path):
        """A recorder abandoned without close() has already written every event."""
        path = tmp_path / "unclosed.flight.jsonl"
        script = (
            "import sys\n"
            "from repro.obs.flightrecorder import FlightRecorder\n"
            "rec = FlightRecorder(sys.argv[1], experiment='exp')\n"
            "for i in range(500):\n"
            "    rec.emit('job.completed', job=f'j{i}')\n"
            "rec.emit('plan.end')\n"
            "sys.exit(0)  # interpreter exit without rec.close()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, check=True, timeout=60.0
        )
        events = read_flight_events(path)
        assert len(events) == 501
        assert events[-1]["kind"] == "plan.end"

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "closed.flight.jsonl"
        rec = FlightRecorder(path, experiment="exp")
        rec.emit("plan.begin")
        rec.close()
        rec.close()  # a second close writes no second run.end
        events = read_flight_events(path)
        assert [e["kind"] for e in events] == ["plan.begin", "run.end"]

    def test_flush_returns_only_after_the_last_line_is_on_disk(self, tmp_path, monkeypatch):
        """Behind a slow sink, the line is still on disk when flush() returns."""
        path = tmp_path / "slow.flight.jsonl"

        class SlowSink(_ProxySink):
            def flush(self):
                time.sleep(0.2)
                return self._sink.flush()

        _use_sink(monkeypatch, path, SlowSink)
        rec = FlightRecorder(path, experiment="exp")
        try:
            rec.emit("plan.begin")
            rec.flush()
            assert [e["kind"] for e in read_flight_events(path)] == ["plan.begin"]
        finally:
            rec.close()

    def test_a_path_recorder_starts_no_thread(self, tmp_path):
        before = threading.active_count()
        rec = FlightRecorder(tmp_path / "a.flight.jsonl")
        try:
            rec.emit("plan.begin")
            assert threading.active_count() == before
        finally:
            rec.close()

    def test_an_event_is_on_disk_when_emit_and_ingest_return(self, tmp_path):
        path = tmp_path / "a.flight.jsonl"
        rec = FlightRecorder(path)
        try:
            rec.emit("plan.begin")
            assert [e["kind"] for e in read_flight_events(path)] == ["plan.begin"]
            rec.ingest([{"kind": "worker.spawn", "pid": 7}, {"kind": "job.completed", "pid": 7}])
            assert [e["seq"] for e in read_flight_events(path)] == [1, 2, 3]
        finally:
            rec.close()

    def test_a_sink_write_error_reaches_the_caller(self, tmp_path, monkeypatch):
        path = tmp_path / "full.flight.jsonl"

        class FullSink(_ProxySink):
            def write(self, text):
                if text:
                    raise OSError(28, "No space left on device")
                return 0

        _use_sink(monkeypatch, path, FullSink)
        rec = FlightRecorder(path, experiment="exp")
        with pytest.raises(OSError, match="No space left"):
            rec.emit("plan.begin")
        with pytest.raises(OSError, match="No space left"):
            rec.ingest([{"kind": "job.completed", "pid": 7}])

    def test_summary_attributes_jobs_to_worker_pids(self, tmp_path):
        rec = FlightRecorder(tmp_path / "a.flight.jsonl")
        rec.emit("job.completed", job="j1", pid=111)
        rec.emit("job.completed", job="j2", pid=111)
        rec.emit("job.completed", job="j3", pid=222)
        summary = rec.close()
        assert summary["workers"]["111"] == {"jobs": 2, "names": ["j1", "j2"]}
        assert summary["workers"]["222"]["jobs"] == 1


class TestEngineInstrumentation:
    def test_serial_run_records_full_job_lifecycle(self, recorder):
        SerialExecutor().run(_plan([Job("a", _draw), Job("b", _draw)]))
        recorder.flush()
        kinds = [e["kind"] for e in read_flight_events(recorder.path)]
        assert kinds.count("plan.begin") == 1
        assert kinds.count("job.submitted") == 2
        assert kinds.count("job.attempt") == 2
        assert kinds.count("job.completed") == 2
        assert kinds.count("plan.end") == 1
        # lifecycle order holds per job
        assert kinds.index("plan.begin") < kinds.index("job.submitted")
        assert kinds.index("job.attempt") < kinds.index("job.completed")

    def test_completed_events_carry_timing_and_seed_fingerprint(self, recorder):
        SerialExecutor().run(_plan([Job("a", _draw)]))
        recorder.flush()
        done = [e for e in read_flight_events(recorder.path) if e["kind"] == "job.completed"]
        assert len(done) == 1
        assert done[0]["job"] == "a"
        assert done[0]["ok"] is True
        assert done[0]["wall_s"] >= 0.0
        assert done[0]["cpu_s"] >= 0.0
        assert isinstance(done[0]["seed_fingerprint"], int)

    def test_parallel_run_keeps_one_totally_ordered_stream(self, recorder):
        names = [f"j{i}" for i in range(8)]
        ParallelExecutor(workers=3, policy=FAST_RETRY).run(
            _plan([Job(n, _draw) for n in names])
        )
        recorder.flush()
        events = read_flight_events(recorder.path)
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        kinds = {e["kind"] for e in events}
        assert {"plan.begin", "job.submitted", "job.completed", "worker.spawn",
                "worker.exit", "scheduler.gauge", "plan.end"} <= kinds
        assert kinds <= EVENT_KINDS | {"run.end"}
        # every completed job ran in a real worker process, not the parent
        parent = os.getpid()
        done_pids = {e["pid"] for e in events if e["kind"] == "job.completed"}
        assert done_pids and parent not in done_pids

    def test_pool_respawn_is_recorded_and_stream_stays_ordered(self, recorder, tmp_path):
        jobs = [Job(f"j{i}", _draw) for i in range(5)]
        jobs.append(Job("killer", _worker_killer, {"marker": str(tmp_path / "kill")}))
        execution = ParallelExecutor(workers=2, policy=FAST_RETRY).run(_plan(jobs))
        assert execution.pool_respawns >= 1
        recorder.flush()
        events = read_flight_events(recorder.path)
        respawns = [e for e in events if e["kind"] == "pool.respawn"]
        assert respawns and respawns[0]["requeued"] >= 1
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        # the killed worker's replacement completed the poisoned job
        assert "killer" in {e.get("job") for e in events if e["kind"] == "job.completed"}

    def test_retry_and_quarantine_events(self, recorder):
        def _always_fails(params, seed_seq):
            raise RuntimeError("permanent failure")

        SerialExecutor(policy=FAST_RETRY).run(
            _plan([Job("doomed", _always_fails), Job("ok", _draw)])
        )
        recorder.flush()
        events = read_flight_events(recorder.path)
        doomed = [e for e in events if e.get("job") == "doomed"]
        kinds = [e["kind"] for e in doomed]
        assert kinds.count("job.attempt") == 3
        assert kinds.count("job.retry") == 2
        assert kinds[-1] == "job.quarantined"
        assert doomed[-1]["attempts"] == 3
        assert "permanent failure" in doomed[-1]["error"]


class TestChromeExport:
    def test_parallel_stream_converts_to_valid_trace_with_worker_tracks(self, recorder, tmp_path):
        # worker tracks come from chunk results: both workers must run a chunk
        met = {"dir": str(tmp_path / "met"), "deadline": time.time() + 60.0}
        (tmp_path / "met").mkdir()
        ParallelExecutor(workers=2, policy=FAST_RETRY).run(
            _plan([Job(f"j{i}", _draw_once_two_workers_met, met) for i in range(6)])
        )
        recorder.flush()
        trace = flight_to_chrome_trace(read_flight_events(recorder.path))
        assert validate_chrome_trace(trace) == []
        tracks = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert "scheduler" in tracks
        assert sum(1 for t in tracks if t.startswith("worker ")) == 2
        bars = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert {b["name"] for b in bars} == {f"j{i}" for i in range(6)}
        counters = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "C"}
        assert counters == {"queue depth", "pool utilization"}

    def test_stats_grid_events_become_a_ci_width_counter_track(self):
        events = [
            {"t": 0.0, "kind": "run.begin", "pid": 1},
            {"t": 0.1, "kind": "stats.grid", "pid": 1, "n": [3], "trials": 1000,
             "f": [1], "half_width": [0.03], "done": [False]},
            {"t": 0.2, "kind": "stats.grid", "pid": 1, "n": [4, 4], "trials": 1000,
             "f": [2, 3], "half_width": [0.05, 0.04], "done": [False, False]},
            {"t": 0.3, "kind": "stats.grid", "pid": 1, "n": [4, 4], "trials": 4000,
             "f": [2, 3], "half_width": [0.02, 0.01], "done": [True, True]},
        ]
        trace = flight_to_chrome_trace(events)
        assert validate_chrome_trace(trace) == []
        samples = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "C" and e["name"] == "ci half-width"
        ]
        # one sample per grid, the worst width over the latest per-cell
        # state: 0.03, then the wider n=4 cells arrive, then their
        # refinement brings the worst back down
        assert [s["args"]["worst"] for s in samples] == [0.03, 0.05, 0.03]


class TestResumedRunStream:
    def test_a_resumed_run_keeps_the_interrupted_runs_events(self, tmp_path, capsys):
        from repro.experiments import runner
        from repro.obs.cli import main as obs_main

        out = tmp_path / "run"
        env = dict(os.environ, DRS_ENGINE_CRASH_AFTER="20")
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env.pop("DRS_WORKER_CRASH_AFTER_CHUNKS", None)
        killed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "figure2", "--quick", "--heartbeat", "0",
             "--out", str(out)],
            env=env, capture_output=True, timeout=120.0,
        )
        assert killed.returncode != 0, "the crash hook never fired"
        stream = out / "figure2.flight.jsonl"
        interrupted = stream.read_bytes()
        interrupted = interrupted[: interrupted.rfind(b"\n") + 1]  # its whole lines
        assert runner.main(["--resume", str(out), "--heartbeat", "0"]) == 0

        assert stream.read_bytes().startswith(interrupted)
        events = read_flight_events(stream)
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        begins = [e for e in events if e["kind"] == "plan.begin"]
        assert len(begins) == 2 and begins[1]["resumed"] == 20
        assert begins[1]["seq"] > len(interrupted.splitlines())
        assert obs_main(["watch", str(stream), "--once", "--no-color"]) == 0
        assert obs_main(["precision", str(stream)]) == 0
        capsys.readouterr()
