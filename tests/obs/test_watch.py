"""Watch dashboard: state reducer, renderer snapshot, and the tail loop."""

import io
import json

from repro.obs.watch import WATCH_EXIT_TIMEOUT, WatchState, follow, render_watch


def _events():
    """A small but representative parallel-run stream."""
    return [
        {"t": 0.0, "kind": "plan.begin", "pid": 1, "experiment": "figure2",
         "backend": "process-pool", "workers": 2, "jobs": 4, "total_trials": 4000},
        {"t": 0.1, "kind": "job.submitted", "pid": 1, "job": "mc/n=3"},
        {"t": 0.1, "kind": "job.submitted", "pid": 1, "job": "mc/n=4"},
        {"t": 0.1, "kind": "job.submitted", "pid": 1, "job": "mc/n=5"},
        {"t": 0.1, "kind": "job.submitted", "pid": 1, "job": "mc/n=6"},
        {"t": 0.2, "kind": "worker.spawn", "pid": 101},
        {"t": 0.2, "kind": "worker.spawn", "pid": 102},
        {"t": 0.3, "kind": "scheduler.gauge", "pid": 1, "queue_depth": 4,
         "outstanding_chunks": 2, "utilization": 1.0, "workers": 2},
        {"t": 0.4, "kind": "job.attempt", "pid": 101, "job": "mc/n=3", "attempt": 1},
        {"t": 0.5, "kind": "job.retry", "pid": 101, "job": "mc/n=3", "attempt": 1,
         "backoff_s": 0.01},
        {"t": 0.6, "kind": "job.attempt", "pid": 101, "job": "mc/n=3", "attempt": 2},
        {"t": 1.0, "kind": "job.completed", "pid": 101, "job": "mc/n=3", "ok": True,
         "attempts": 2, "wall_s": 0.6, "cpu_s": 0.5, "seed_fingerprint": 7},
        {"t": 1.1, "kind": "job.attempt", "pid": 102, "job": "mc/n=4", "attempt": 1},
        {"t": 1.2, "kind": "checkpoint.write", "pid": 1, "job": "mc/n=3",
         "records": 1, "bytes": 120},
        {"t": 1.3, "kind": "heartbeat", "pid": 1, "label": "figure2", "trials": 1000,
         "total": 4000, "trials_per_second": 800.0, "jobs": 1, "jobs_total": 4},
    ]


def _cell_events():
    """Batch-progress ``stats.grid`` snapshots for two (n, f) cells."""
    return [
        {"t": 1.4, "kind": "stats.grid", "pid": 101, "n": [3], "trials": 2000, "target": 0.01,
         "f": [1], "half_width": [0.015], "met": [False], "done": [False]},
        {"t": 1.5, "kind": "stats.grid", "pid": 101, "n": [3], "trials": 4000, "target": 0.01,
         "f": [1], "half_width": [0.009], "met": [True], "done": [True]},
        {"t": 1.6, "kind": "stats.grid", "pid": 102, "n": [4], "trials": 1000, "target": 0.01,
         "f": [2], "half_width": [0.02], "met": [False], "done": [False]},
    ]


class TestWatchState:
    def test_reducer_folds_the_stream(self):
        state = WatchState().apply_all(_events())
        assert state.experiment == "figure2"
        assert state.backend == "process-pool"
        assert state.jobs_total == 4
        assert state.jobs_submitted == 4
        assert state.jobs_done == 1
        assert state.retries == 1
        assert state.queue_depth == 4
        assert state.trials == 1000
        assert state.total_trials == 4000
        assert state.checkpoint_records == 1
        assert not state.finished
        assert state.workers[101].state == "idle"
        assert state.workers[101].jobs_done == 1
        assert state.workers[101].retries == 1
        assert state.workers[102].state == "running"
        assert state.workers[102].job == "mc/n=4"

    def test_run_end_finishes_and_eta_derives_from_job_throughput(self):
        state = WatchState().apply_all(_events())
        # 1 of 4 jobs done in 1.3s of stream time -> 3 * 1.3 left
        assert state.eta_s() == 3 * state.elapsed_s
        state.apply({"t": 2.0, "kind": "run.end", "pid": 1, "events": 15})
        assert state.finished
        assert state.eta_s() is None

    def test_a_resumed_run_after_the_last_run_end_is_not_finished(self):
        state = WatchState().apply_all(_events())
        state.apply({"t": 2.0, "kind": "run.end", "pid": 1, "events": 15})
        state.apply({"t": 3.0, "kind": "plan.begin", "pid": 1, "jobs": 4, "resumed": 1})
        assert not state.finished

    def test_resumed_jobs_count_as_done(self):
        state = WatchState()
        state.apply({"t": 0.0, "kind": "plan.begin", "pid": 1, "jobs": 2,
                     "backend": "serial", "workers": 1, "resumed": 2})
        state.apply({"t": 0.1, "kind": "job.resumed", "pid": 1, "job": "a"})
        state.apply({"t": 0.1, "kind": "job.resumed", "pid": 1, "job": "b"})
        assert state.jobs_done == 2
        assert state.jobs_resumed == 2

    def test_to_dict_is_json_serializable(self):
        payload = WatchState().apply_all(_events()).to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["jobs"] == {
            "total": 4, "submitted": 4, "done": 1, "resumed": 0, "quarantined": 0,
        }
        assert round_tripped["workers"]["102"]["job"] == "mc/n=4"

    def test_unknown_kinds_only_bump_the_event_count(self):
        state = WatchState()
        state.apply({"t": 0.0, "kind": "future.kind", "pid": 1})
        assert state.events == 1
        assert state.jobs_done == 0

    def test_stats_grid_events_fold_into_a_precision_summary(self):
        state = WatchState().apply_all(_events() + _cell_events())
        # the second n=3 snapshot supersedes the first
        assert state.cells[(3, 1)]["trials"] == 4000
        summary = state.precision_summary()
        assert summary["cells"] == 2 and summary["done"] == 1
        assert summary["target"] == 0.01 and summary["at_target"] == 1
        assert summary["worst"] == {
            "n": 4, "f": 2, "half_width": 0.02, "trials": 1000,
        }

    def test_precision_summary_is_none_without_cells_and_untargeted_otherwise(self):
        assert WatchState().apply_all(_events()).precision_summary() is None
        state = WatchState()
        state.apply({"t": 0.5, "kind": "stats.grid", "pid": 1, "n": [3], "trials": 100,
                     "f": [1], "half_width": [0.05], "done": [False]})
        summary = state.precision_summary()
        assert summary["target"] is None and summary["at_target"] is None

    def test_to_dict_carries_the_precision_block(self):
        payload = WatchState().apply_all(_events() + _cell_events()).to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["precision"]["cells"] == 2
        assert round_tripped["precision"]["worst"]["n"] == 4
        assert WatchState().apply_all(_events()).to_dict()["precision"] is None


class TestDistributedEvents:
    def _distributed_events(self):
        return [
            {"t": 0.0, "kind": "plan.begin", "pid": 1, "experiment": "figure2",
             "backend": "distributed", "workers": 2, "jobs": 4},
            {"t": 0.1, "kind": "worker.join", "pid": 201, "host": "node-a", "worker": 1},
            {"t": 0.1, "kind": "worker.join", "pid": 202, "host": "node-b", "worker": 2},
            {"t": 0.2, "kind": "job.attempt", "pid": 201, "job": "mc/n=3", "attempt": 1},
            {"t": 0.5, "kind": "worker.leave", "pid": 201, "reason": "heartbeat timeout"},
            {"t": 0.6, "kind": "job.stolen", "pid": 1, "job": "mc/n=3",
             "from_worker": 1, "to_worker": 2},
            {"t": 0.7, "kind": "checkpoint.compact", "pid": 1, "records": 3,
             "reclaimed": 5, "compactions": 2, "bytes": 360},
        ]

    def test_reducer_folds_join_leave_steal_and_compaction(self):
        state = WatchState().apply_all(self._distributed_events())
        assert state.workers[201].host == "node-a"
        assert state.workers[201].state == "exited"
        assert state.workers[202].state == "idle"
        assert state.jobs_stolen == 1
        assert state.checkpoint_compactions == 2
        payload = json.loads(json.dumps(state.to_dict()))
        assert payload["workers"]["201"]["host"] == "node-a"
        assert payload["jobs_stolen"] == 1

    def test_render_labels_hosts_and_counts_steals(self):
        text = render_watch(WatchState().apply_all(self._distributed_events()), color=False)
        assert "worker 201@node-a exited" in text
        assert "worker 202@node-b idle" in text
        assert "stolen 1" in text

    def test_plan_interrupted_renders_the_interrupted_badge(self):
        state = WatchState().apply_all(_events())
        state.apply({"t": 2.0, "kind": "plan.interrupted", "pid": 1, "settled": 1})
        assert state.interrupted
        assert "[INTERRUPTED]" in render_watch(state, color=False)

    def test_a_resumed_plan_clears_the_interrupted_badge(self):
        # a resumed run appends to the interrupted run's stream: its plan.begin
        # starts a plan that has not been interrupted
        state = WatchState().apply_all(_events())
        state.apply({"t": 2.0, "kind": "plan.interrupted", "pid": 1, "settled": 1})
        state.apply_all(_events())
        assert not state.interrupted
        assert "[RUNNING]" in render_watch(state, color=False)
        state.apply({"t": 3.0, "kind": "run.end", "pid": 1})
        assert "[DONE]" in render_watch(state, color=False)


class TestRenderWatch:
    def test_ci_line_renders_between_trials_and_workers(self):
        text = render_watch(
            WatchState().apply_all(_events() + _cell_events()), color=False
        )
        lines = text.splitlines()
        ci = next(i for i, line in enumerate(lines) if line.startswith("ci:"))
        assert lines[ci] == (
            "ci: 2 cell(s), worst half-width 0.02 (n=4, f=2, 1,000 trials)"
            "  1/2 at target 0.01"
        )
        assert lines[ci - 1].startswith("trials")
        assert lines[ci + 1].startswith("  worker")

    def test_ci_badge_goes_green_when_every_cell_is_at_target(self):
        events = [e for e in _cell_events() if e.get("f") != [2]]
        text = render_watch(WatchState().apply_all(_events() + events), color=True)
        assert "\x1b[32m1/1 at target 0.01" in text

    def test_plain_snapshot(self):
        text = render_watch(WatchState().apply_all(_events()), color=False)
        assert text.splitlines() == [
            "flight: figure2 (process-pool, 2 worker(s))  [RUNNING]",
            "jobs ######------------------ 1/4 ( 25%)  queue 4 · retries 1",
            "trials 1,000/4,000 (800/s) · elapsed 1.3s · ETA 4s · pool 100% busy",
            "  worker 101      idle                                       1 job(s), 1 retried",
            "  worker 102      running mc/n=4                             0 job(s)",
            "checkpoint: 1 record(s) · last mc/n=3",
        ]

    def test_empty_state_renders_waiting(self):
        text = render_watch(WatchState(), color=False)
        assert "[WAITING]" in text
        assert "jobs 0 done" in text

    def test_color_mode_emits_ansi(self):
        assert "\x1b[" in render_watch(WatchState().apply_all(_events()), color=True)


class TestFollow:
    def test_once_renders_current_state_and_exits_zero(self, tmp_path):
        path = tmp_path / "run.flight.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in _events()))
        out = io.StringIO()
        assert follow(path, once=True, color=False, stream=out) == 0
        assert "flight: figure2" in out.getvalue()

    def test_incremental_tail_ignores_partial_final_line(self, tmp_path):
        path = tmp_path / "run.flight.jsonl"
        events = _events()
        complete = "".join(json.dumps(e) + "\n" for e in events[:3])
        torn = json.dumps(events[3])[:10]  # writer mid-flush
        path.write_text(complete + torn)
        out = io.StringIO()
        follow(path, once=True, as_json=True, stream=out)
        payload = json.loads(out.getvalue())
        assert payload["events"] == 3
        assert payload["jobs"]["submitted"] == 2

    def test_duration_budget_expires_with_timeout_exit(self, tmp_path):
        path = tmp_path / "run.flight.jsonl"
        path.write_text(json.dumps(_events()[0]) + "\n")  # no run.end ever
        ticks = iter([0.0, 0.2, 10.0, 11.0, 12.0])
        out = io.StringIO()
        code = follow(
            path,
            interval_s=0.01,
            duration_s=1.0,
            color=False,
            stream=out,
            clock=lambda: next(ticks),
            sleep=lambda s: None,
        )
        assert code == WATCH_EXIT_TIMEOUT

    def test_follow_sees_run_end_appended_between_polls(self, tmp_path):
        path = tmp_path / "run.flight.jsonl"
        path.write_text(json.dumps(_events()[0]) + "\n")

        def late_append(_s):
            with path.open("a") as fh:
                fh.write(json.dumps({"t": 9.0, "kind": "run.end", "pid": 1}) + "\n")

        out = io.StringIO()
        code = follow(path, interval_s=0.01, color=False, stream=out, sleep=late_append)
        assert code == 0
        frames = out.getvalue()
        assert "[RUNNING]" in frames  # first poll, before the append
        assert "[DONE]" in frames  # final frame after run.end arrived
