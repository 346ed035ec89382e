"""Every metric the benchmark emits: name, unit, direction, estimator.

``BENCHMARK.json`` at the repository root lists the same names (and holds
each end-to-end metric's regression bound); the harness self-tests assert
the two agree, so a metric cannot be added in one place only.

Estimator (why best-of-K): on a small shared VM the spread of a rep's wall
time is additive contention — mostly system time spent zeroing pages — not
program behaviour, so the *minimum* over the K reps of a run estimates the
program's time far more tightly than their median (README.md, "The
system-time finding").  Times therefore report the best rep; counts, which
repeat within a percent or two, report the median; ``setup_s`` reports the
median because every rep sets up once and nothing about set-up is bimodal.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: how the K reps of one run reduce to the reported value
    estimator: str  # "best" | "median"


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", "best"),
    EndToEnd("setup_s", "s", "lower", "median"),
    EndToEnd("work_per_s", "unit/s", "higher", "best"),
    EndToEnd("cpu_user_s", "s", "lower", "best"),
    EndToEnd("minor_faults", "count", "lower", "median"),
    EndToEnd("peak_rss_mb", "MiB", "lower", "median"),
)

#: simulator callback modules that get their own ``simkit.cb_share.*`` row;
#: anything else the profiler reports is folded into ``other``
CALLBACK_MODULES = ("process", "backplane", "icmp", "failover", "other")

PER_LAYER: tuple[PerLayer, ...] = (
    # sampling layer, dual-hub CRN sweep (replay)
    PerLayer("analysis.draw_s", "s", "lower"),
    PerLayer("analysis.levels_s", "s", "lower"),
    PerLayer("analysis.histogram_s", "s", "lower"),
    PerLayer("analysis.grid_job_s", "s", "lower"),
    PerLayer("analysis.trials", "count", "higher"),
    PerLayer("analysis.ns_per_trial_component", "ns", "lower"),
    # sampling layer, padded multi-N tensor pass (replay)
    PerLayer("analysis.full_grid_s", "s", "lower"),
    PerLayer("analysis.full_grid_sys_share", "ratio", "lower"),
    PerLayer("analysis.full_grid_peak_bytes", "bytes", "lower"),
    PerLayer("analysis.eq1_curve_s", "s", "lower"),
    # generic topology kernel (replay)
    PerLayer("topology.build_s", "s", "lower"),
    PerLayer("topokernel.keys_s", "s", "lower"),
    PerLayer("topokernel.levels_s", "s", "lower"),
    PerLayer("topokernel.bfs_passes", "count", "lower"),
    PerLayer("topokernel.grid_job_s", "s", "lower"),
    PerLayer("topokernel.fastpath_ratio", "ratio", "lower"),
    PerLayer("topokernel.exact_overlay_s", "s", "lower"),
    PerLayer("topokernel.exact_combinations", "count", "lower"),
    PerLayer("topokernel.exact_us_per_combination", "us", "lower"),
    # set-up
    PerLayer("experiments.import_s", "s", "lower"),
    PerLayer("engine.plan_build_s", "s", "lower"),
    PerLayer("engine.worker_ready_s", "s", "lower"),
    # engine, read from the run's flight stream, checkpoint and manifest
    PerLayer("engine.exec_wall_s", "s", "lower"),
    PerLayer("engine.job_fn_s", "s", "lower"),
    PerLayer("engine.overhead_ms_per_job", "ms", "lower"),
    PerLayer("engine.worker_utilization", "ratio", "higher"),
    PerLayer("engine.straggler_share", "ratio", "lower"),
    PerLayer("engine.chunks", "count", "lower"),
    PerLayer("engine.jobs_per_chunk", "count", "higher"),
    PerLayer("engine.checkpoint_bytes", "bytes", "lower"),
    PerLayer("engine.retries", "count", "lower"),
    PerLayer("engine.quarantined", "count", "lower"),
    PerLayer("engine.stolen", "count", "lower"),
    PerLayer("engine.respawns", "count", "lower"),
    PerLayer("engine.resumed", "count", "lower"),
    # engine, replayed at the plan's shapes
    PerLayer("engine.seed_spawn_s", "s", "lower"),
    PerLayer("engine.checkpoint_record_s", "s", "lower"),
    PerLayer("engine.checkpoint_us_per_record", "us", "lower"),
    PerLayer("engine.checkpoint_load_s", "s", "lower"),
    PerLayer("engine.pickle_s", "s", "lower"),
    PerLayer("engine.pickle_bytes", "bytes", "lower"),
    PerLayer("engine.wire_codec_s", "s", "lower"),
    PerLayer("engine.wire_bytes", "bytes", "lower"),
    PerLayer("engine.frame_rtt_us", "us", "lower"),
    # observability
    PerLayer("obs.flight_events", "count", "lower"),
    PerLayer("obs.flight_bytes", "bytes", "lower"),
    PerLayer("obs.flight_emit_us", "us", "lower"),
    PerLayer("obs.flight_ingest_s", "s", "lower"),
    PerLayer("obs.metrics_merge_s", "s", "lower"),
    PerLayer("obs.artifact_write_s", "s", "lower"),
    PerLayer("obs.telemetry_share", "ratio", "lower"),
    # protocol side
    PerLayer("simkit.events", "count", "lower"),
    PerLayer("simkit.events_per_s", "1/s", "higher"),
    PerLayer("simkit.run_s", "s", "lower"),
    PerLayer("simkit.bare_loop_events_per_s", "1/s", "higher"),
    PerLayer("simkit.schedule_per_s", "1/s", "higher"),
    PerLayer("simkit.profile_share", "ratio", "lower"),
    *(PerLayer(f"simkit.cb_share.{module}", "ratio", "lower") for module in CALLBACK_MODULES),
    PerLayer("netsim.cluster_build_s", "s", "lower"),
    PerLayer("netsim.fault_inject_s", "s", "lower"),
    PerLayer("drs.warmup_s", "s", "lower"),
    PerLayer("drs.settle_s", "s", "lower"),
    PerLayer("experiments.reduce_s", "s", "lower"),
    # whole process tree
    PerLayer("proc.cpu_sys_s", "s", "lower"),
    PerLayer("proc.sys_share", "ratio", "lower"),
    # the benchmark itself
    PerLayer("checks.failed_share", "ratio", "lower"),
    PerLayer("trace.overhead_share", "ratio", "lower"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
