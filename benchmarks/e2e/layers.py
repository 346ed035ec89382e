"""Per-layer attribution, measured from outside the program.

Three sources, none of which touches ``src/``:

* *artifacts* — the run's own flight stream, checkpoint, manifest and
  metrics snapshot (:func:`artifact_metrics`, :func:`flight_spans`);
* *replay* — the benchmark calls each layer's public functions itself, at
  the shapes the workload's plan has, and times them (:func:`replay`);
* *rusage* — ``getrusage`` around a replayed call.

A layer a workload never enters reports 0 for that workload: the padded
tensor pass does no work in ``desval_serial``, the simulator none in
``fig2_crn_serial``.  Replayed times are measured in the (warm) harness
process, so they are a layer's cost without first-touch effects; the
end-to-end numbers carry those.
"""

from __future__ import annotations

import json
import math
import pickle
import resource
import socket
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from names import CALLBACK_MODULES
from tracing import SpanRecorder

#: ParallelExecutor's default chunking: ceil(jobs / (workers * 4)) jobs per chunk
POOL_CHUNKS_PER_WORKER = 4
#: simulate_grid / simulate_topology_grid default batch
MC_BATCH = 200_000
FLIGHT_EMITS = 2_000
FRAME_ROUND_TRIPS = 200
BARE_LOOP_EVENTS = 100_000
FASTPATH_ROUNDS = 3


# ------------------------------------------------------------------ artifacts
def _flight_events(out: Path, name: str) -> list[dict[str, Any]]:
    from repro.obs.flightrecorder import FLIGHT_SUFFIX, read_flight_events

    return read_flight_events(out / f"{name}{FLIGHT_SUFFIX}")


def _metric_rows(out: Path, name: str) -> list[dict[str, Any]]:
    with (out / f"{name}.metrics.jsonl").open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def chunk_count(events: list[dict[str, Any]], backend: str, jobs: int) -> int:
    """How many chunks the scheduler handed out, per backend's gauge discipline."""
    gauges = [e for e in events if e["kind"] == "scheduler.gauge"]
    if backend == "process-pool":
        # sampled once right after every chunk was submitted, then per absorb
        return int(gauges[0]["outstanding_chunks"]) if gauges else 0
    if backend == "distributed":
        # sampled once per chunk handed out and once per chunk absorbed
        return len(gauges) // 2
    return jobs  # serial: every job is its own unit


def artifact_metrics(out: Path, name: str, workers: int) -> dict[str, float]:
    """Engine, obs and simkit numbers read from one finished run's files."""
    events = _flight_events(out, name)
    begin = next(e for e in events if e["kind"] == "plan.begin")
    end = next(e for e in reversed(events) if e["kind"] == "plan.end")
    ready = [e["t"] for e in events if e["kind"] in ("worker.spawn", "worker.join")]
    t_ready = min(ready) if ready else begin["t"]
    job_walls = [e["wall_s"] for e in events if e["kind"] == "job.completed"]
    jobs = int(begin["jobs"])
    exec_wall = end["t"] - begin["t"]
    job_fn = sum(job_walls)
    chunks = chunk_count(events, begin["backend"], jobs)
    flight_path = next(out.glob(f"{name}.flight.jsonl"))
    checkpoint_path = out / f"{name}.checkpoint.jsonl"
    metrics: dict[str, float] = {
        "t_ready": t_ready,
        "engine.worker_ready_s": t_ready - begin["t"],
        "engine.exec_wall_s": exec_wall,
        "engine.job_fn_s": job_fn,
        "engine.overhead_ms_per_job": (exec_wall - job_fn / workers) / jobs * 1e3,
        "engine.worker_utilization": job_fn / (workers * exec_wall),
        "engine.straggler_share": max(job_walls) / exec_wall,
        "engine.chunks": chunks,
        "engine.jobs_per_chunk": jobs / chunks if chunks else 0.0,
        "engine.stolen": sum(e["kind"] == "job.stolen" for e in events),
        "engine.checkpoint_bytes": checkpoint_path.stat().st_size,
        "obs.flight_events": len(events),
        "obs.flight_bytes": flight_path.stat().st_size,
    }
    sim_events = sim_run = callback_total = 0.0
    by_module = dict.fromkeys(CALLBACK_MODULES, 0.0)
    for row in _metric_rows(out, name):
        category = (row.get("labels") or {}).get("category")
        if row["name"] == "sim_events_total" and category is None:
            sim_events = row["value"]
        elif row["name"] == "sim_run_seconds_total":
            sim_run = row["value"]
        elif row["name"] == "sim_callback_seconds_total":
            if category is None:
                callback_total = row["value"]
            else:
                by_module[category if category in by_module else "other"] += row["value"]
    metrics["simkit.events"] = sim_events
    metrics["simkit.run_s"] = sim_run
    metrics["simkit.events_per_s"] = sim_events / sim_run if sim_run else 0.0
    for module, seconds in by_module.items():
        metrics[f"simkit.cb_share.{module}"] = seconds / callback_total if callback_total else 0.0
    return metrics


def flight_spans(tracer: SpanRecorder, out: Path, name: str) -> None:
    """Rebuild worker-ready and per-job spans from the run's flight stream.

    Flight events carry the emitting process's wall clock, the clock the
    tracer uses, so the rebuilt spans nest under ``engine.executor_run``.
    """
    parent = next(s["id"] for s in tracer.spans if s["name"] == "engine.executor_run")
    events = _flight_events(out, name)
    begin = next(e for e in events if e["kind"] == "plan.begin")
    ready = [e for e in events if e["kind"] in ("worker.spawn", "worker.join")]
    if ready:
        tracer.add("engine.worker_ready", begin["t"], min(e["t"] for e in ready), parent)
    for event in events:
        if event["kind"] == "job.completed":
            tracer.add("engine.job_fn", event["t"] - event["wall_s"], event["t"], parent,
                       pid=event["pid"])


# --------------------------------------------------------------------- replay
class Replay:
    """Accumulates replayed layer times under their metric names, with spans."""

    def __init__(self, tracer: SpanRecorder) -> None:
        self.tracer = tracer
        self.metrics: dict[str, float] = {}

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Add the enclosed block's wall time to metric ``name``."""
        with self.tracer.span(name):
            started = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - started
                self.metrics[name] = self.metrics.get(name, 0.0) + elapsed


def _cpu_times() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def _batches(iterations: int) -> list[int]:
    full, rest = divmod(iterations, MC_BATCH)
    return [MC_BATCH] * full + ([rest] if rest else [])


def _replay_jobs(rp: Replay, plan, metric: str) -> list:
    """Run every job function bare (no executor, no telemetry); return outcomes."""
    from repro.engine import JobOutcome

    outcomes = []
    for job in plan.jobs:
        seed_seq = plan.job_seedseq(job)
        started = time.perf_counter()
        with rp.timed(metric):
            value = job.fn(job.params, seed_seq)
        outcomes.append(JobOutcome(name=job.name, ok=True, value=value,
                                   elapsed_s=time.perf_counter() - started))
    return outcomes


def _replay_figure2(rp: Replay, plan, kwargs: dict[str, Any]) -> list:
    import numpy as np
    from repro.analysis import (
        connectivity_levels,
        simulate_grid,
        simulate_topology_grid,
        success_curve,
    )
    from repro.experiments.figure2 import F_VALUES
    from repro.topology import build_topology

    components = 0
    for job in plan.jobs:
        width = 2 * job.params["n"] + 2
        rng = np.random.default_rng(plan.job_seedseq(job))
        for size in _batches(job.params["iterations"]):
            with rp.timed("analysis.draw_s"):
                keys = rng.random((size, width))
            with rp.timed("analysis.levels_s"):
                levels = connectivity_levels(keys)
            with rp.timed("analysis.histogram_s"):
                np.bincount(levels, minlength=width + 1)[::-1].cumsum()
            components += size * width
    outcomes = _replay_jobs(rp, plan, "analysis.grid_job_s")
    rp.metrics["analysis.trials"] = sum(job.params["iterations"] for job in plan.jobs)
    rp.metrics["analysis.ns_per_trial_component"] = (
        rp.metrics["analysis.grid_job_s"] / components * 1e9
    )
    f_values = kwargs.get("f_values", F_VALUES)
    n_max = kwargs.get("n_max", 63)
    for f in f_values:
        with rp.timed("analysis.eq1_curve_s"):
            success_curve(f, n_max=n_max)
    # the same dual-hub shapes through the generic topology entry point
    n = min(n_max, 63)
    fs = tuple(f for f in f_values if f < n)
    iterations = plan.jobs[0].params["iterations"]
    topology = build_topology("dual-hub", size=n)
    generic, special = [], []
    for _ in range(FASTPATH_ROUNDS):
        started = time.perf_counter()
        simulate_topology_grid(topology, fs, iterations, np.random.default_rng(plan.seed))
        generic.append(time.perf_counter() - started)
        started = time.perf_counter()
        simulate_grid(n, fs, iterations, np.random.default_rng(plan.seed))
        special.append(time.perf_counter() - started)
    rp.metrics["topokernel.fastpath_ratio"] = min(generic) / min(special)
    return outcomes


def _replay_figure3(rp: Replay, plan, kwargs: dict[str, Any]) -> list:
    user0, sys0 = _cpu_times()
    outcomes = _replay_jobs(rp, plan, "analysis.full_grid_s")
    user1, sys1 = _cpu_times()
    cpu = (user1 - user0) + (sys1 - sys0)
    rp.metrics["analysis.full_grid_sys_share"] = (sys1 - sys0) / cpu if cpu else 0.0
    params = max((job.params for job in plan.jobs), key=lambda p: p["iterations"])
    n_max = params["n_max"]
    n_count = n_max - max(2, min(params["fs"]) + 1) + 1
    # computed, not measured: one padded key matrix of the largest column
    rp.metrics["analysis.full_grid_peak_bytes"] = (
        n_count * min(params["iterations"], MC_BATCH) * (2 * n_max + 2) * 8
    )
    rp.metrics["analysis.trials"] = n_count * sum(job.params["iterations"] for job in plan.jobs)
    return outcomes


def _replay_topologysweep(rp: Replay, plan, kwargs: dict[str, Any]) -> list:
    import numpy as np
    from repro.analysis import (
        exact_topology_success,
        topology_connectivity_levels,
        topology_keys,
    )
    from repro.experiments.topologysweep import EXACT_BUDGET
    from repro.topology import build_topology

    passes = combinations = 0
    for job in plan.jobs:
        params = job.params
        with rp.timed("topology.build_s"):
            topology = build_topology(params["spec"], size=params["size"])
        rng = np.random.default_rng(plan.job_seedseq(job))
        for size in _batches(params["iterations"]):
            with rp.timed("topokernel.keys_s"):
                keys = topology_keys(topology, size, rng)
            with rp.timed("topokernel.levels_s"):
                topology_connectivity_levels(topology, keys)
            if topology.levels_fn is None:  # binary search over f, one BFS per step
                passes += math.ceil(math.log2(topology.width + 1))
        for f in params["fs"]:
            if f > topology.width:
                continue
            enumerated = topology.exact_fn is None
            with rp.timed("topokernel.exact_overlay_s"):
                try:
                    exact_topology_success(topology, f, max_combinations=EXACT_BUDGET)
                except ValueError:  # universe too large: the reduce skips the cell too
                    enumerated = False
            if enumerated:
                combinations += math.comb(topology.width, f)
    outcomes = _replay_jobs(rp, plan, "topokernel.grid_job_s")
    rp.metrics["topokernel.bfs_passes"] = passes
    rp.metrics["topokernel.exact_combinations"] = combinations
    rp.metrics["topokernel.exact_us_per_combination"] = (
        rp.metrics["topokernel.exact_overlay_s"] / combinations * 1e6 if combinations else 0.0
    )
    rp.metrics["analysis.trials"] = sum(job.params["iterations"] for job in plan.jobs)
    return outcomes


def _replay_desval(rp: Replay, plan, kwargs: dict[str, Any]) -> list:
    import numpy as np
    from repro.drs import install_drs
    from repro.experiments.desvalidation import VALIDATION_CONFIG
    from repro.netsim import build_dual_backplane_cluster
    from repro.obs import MetricsRegistry, ensure_core_metrics, use_registry
    from repro.obs.profiler import install_profiling, uninstall_profiling
    from repro.protocols import install_stacks
    from repro.simkit import Simulator

    # one untimed replicate first: whichever of the two timed passes ran cold
    # would otherwise carry the first-touch cost and bias profile_share
    first = plan.jobs[0]
    first.fn(first.params, plan.job_seedseq(first))
    # bare replicates run with the profiler hook off (this process never installed it)
    outcomes = _replay_jobs(rp, plan, "simkit.replicates_unprofiled_s")
    unprofiled = rp.metrics.pop("simkit.replicates_unprofiled_s")
    # the phases of one_replicate, profiled the way the CLI runs them
    install_profiling()
    try:
        with use_registry(ensure_core_metrics(MetricsRegistry())):
            profiled_started = time.perf_counter()
            for job in plan.jobs:
                rng = np.random.default_rng(plan.job_seedseq(job))
                with rp.timed("netsim.cluster_build_s"):
                    sim = Simulator()
                    cluster = build_dual_backplane_cluster(sim, job.params["n"])
                    cluster.trace.enabled = False
                    stacks = install_stacks(cluster)
                    install_drs(cluster, stacks, VALIDATION_CONFIG)
                with rp.timed("drs.warmup_s"):
                    sim.run(until=1.0)
                with rp.timed("netsim.fault_inject_s"):
                    cluster.faults.apply_exact_failures(job.params["f"], rng)
                with rp.timed("drs.settle_s"):
                    sim.run(until=3.0)
                stacks[0].icmp.ping(1, timeout_s=0.05, callback=lambda reply: None)
                sim.run(until=sim.now + 0.2)
            profiled = time.perf_counter() - profiled_started
    finally:
        uninstall_profiling()
    rp.metrics["simkit.profile_share"] = 1.0 - unprofiled / profiled
    # ceiling: the event loop with callbacks that do nothing
    sim = Simulator()
    noop = lambda: None  # noqa: E731
    with rp.timed("simkit.schedule_bare_s"):
        for i in range(BARE_LOOP_EVENTS):
            sim.schedule(i * 1e-6, noop)
    with rp.timed("simkit.run_bare_s"):
        sim.run()
    rp.metrics["simkit.schedule_per_s"] = BARE_LOOP_EVENTS / rp.metrics.pop("simkit.schedule_bare_s")
    rp.metrics["simkit.bare_loop_events_per_s"] = BARE_LOOP_EVENTS / rp.metrics.pop("simkit.run_bare_s")
    return outcomes


SPEC_REPLAYS = {
    "figure2": _replay_figure2,
    "figure3": _replay_figure3,
    "topologysweep": _replay_topologysweep,
    "desval": _replay_desval,
}


def _replay_engine(rp: Replay, plan, outcomes: list, workers: int, scratch: Path) -> None:
    from repro.engine import Checkpoint
    from repro.engine.distributed import (
        job_from_wire,
        job_to_wire,
        outcome_from_wire,
        outcome_to_wire,
        recv_frame,
        send_frame,
    )

    with rp.timed("engine.seed_spawn_s"):
        plan.job_seeds()
    path = scratch / "replay.checkpoint.jsonl"
    checkpoint = Checkpoint(path)
    checkpoint.load(plan)  # the run pays this once, on an empty file
    with rp.timed("engine.checkpoint_record_s"):
        for outcome in outcomes:
            checkpoint.record(plan, outcome)
    rp.metrics["engine.checkpoint_us_per_record"] = (
        rp.metrics["engine.checkpoint_record_s"] / len(outcomes) * 1e6
    )
    with rp.timed("engine.checkpoint_load_s"):
        Checkpoint(path).load(plan)

    size = max(1, -(-len(plan.jobs) // (max(workers, 1) * POOL_CHUNKS_PER_WORKER)))
    pickled = 0
    with rp.timed("engine.pickle_s"):
        for i in range(0, len(plan.jobs), size):
            for payload in (plan.jobs[i : i + size], outcomes[i : i + size]):
                data = pickle.dumps(payload)
                pickle.loads(data)
                pickled += len(data)
    rp.metrics["engine.pickle_bytes"] = pickled

    wired = 0
    with rp.timed("engine.wire_codec_s"):
        for job, outcome in zip(plan.jobs, outcomes):
            for to_wire, from_wire, item in ((job_to_wire, job_from_wire, job),
                                             (outcome_to_wire, outcome_from_wire, outcome)):
                frame = to_wire(item)
                wired += len(json.dumps(frame))
                from_wire(frame)
    rp.metrics["engine.wire_bytes"] = wired

    left, right = socket.socketpair()
    try:
        with rp.timed("engine.frame_round_trips_s"):
            for i in range(FRAME_ROUND_TRIPS):
                send_frame(left, {"type": "next", "seq": i})
                send_frame(right, recv_frame(right))
                recv_frame(left)
    finally:
        left.close()
        right.close()
    rp.metrics["engine.frame_rtt_us"] = (
        rp.metrics.pop("engine.frame_round_trips_s") / FRAME_ROUND_TRIPS * 1e6
    )


def _replay_obs(rp: Replay, plan, spec_name: str, traced_out: Path, chunks: int,
                scratch: Path) -> None:
    from repro.obs import MetricsRegistry, ensure_core_metrics
    from repro.obs.flightrecorder import FlightRecorder

    recorder = FlightRecorder(scratch / "replay-emit.flight.jsonl", experiment=plan.experiment)
    with rp.timed("obs.flight_emits_s"):
        for i in range(FLIGHT_EMITS):
            recorder.emit("job.completed", job=f"replay/{i}", ok=True, attempts=1,
                          wall_s=0.001, cpu_s=0.001, seed_fingerprint=i)
        recorder.flush()
    recorder.close()
    rp.metrics["obs.flight_emit_us"] = rp.metrics.pop("obs.flight_emits_s") / FLIGHT_EMITS * 1e6

    events = _flight_events(traced_out, spec_name)
    coordinator = next(e["pid"] for e in events if e["kind"] == "plan.begin")
    worker_events = [
        {k: v for k, v in e.items() if k != "seq"}
        for e in events
        if e["pid"] != coordinator and e["kind"].startswith(("job.", "stats.", "worker.spawn"))
    ]
    recorder = FlightRecorder(scratch / "replay-ingest.flight.jsonl", experiment=plan.experiment)
    with rp.timed("obs.flight_ingest_s"):
        recorder.ingest(worker_events)
        recorder.flush()
    recorder.close()

    parent = ensure_core_metrics(MetricsRegistry())
    worker = ensure_core_metrics(MetricsRegistry())
    worker.counter("mc_iterations_total").add(1)
    if len({e["pid"] for e in events}) > 1:  # serial runs merge nothing
        with rp.timed("obs.metrics_merge_s"):
            for _ in range(chunks):
                parent.merge(worker)


def replay(spec_name: str, kwargs: dict[str, Any], seed: int, workers: int, chunks: int,
           traced_out: Path, scratch: Path, tracer: SpanRecorder) -> dict[str, float]:
    """Replay every layer at the workload's shapes; return metric -> value."""
    import repro.experiments  # noqa: F401 - registers every ExperimentSpec
    from repro.engine import get_spec

    spec = get_spec(spec_name)
    build_plan = sys.modules[spec.run.__module__].build_plan
    rp = Replay(tracer)
    with tracer.span("replay"):
        with rp.timed("engine.plan_build_s"):
            plan = build_plan(**kwargs, seed=seed)
        outcomes = SPEC_REPLAYS[spec_name](rp, plan, kwargs)
        with rp.timed("experiments.reduce_s"):
            plan.reduce({outcome.name: outcome.value for outcome in outcomes})
        # the exact overlay runs inside reduce; it is its own layer
        rp.metrics["experiments.reduce_s"] = max(
            0.0, rp.metrics["experiments.reduce_s"] - rp.metrics.get("topokernel.exact_overlay_s", 0.0)
        )
        _replay_engine(rp, plan, outcomes, workers, scratch)
        _replay_obs(rp, plan, spec_name, traced_out, chunks, scratch)
    return rp.metrics
