"""Scenario execution: build the stack from a spec, drive it, report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.baselines import ROUTING_PROTOCOLS
from repro.cluster import (
    MpiJobConfig,
    MpiRingJob,
    VoicemailCluster,
    VoicemailConfig,
    install_messaging,
)
from repro.netsim import FaultScenario, build_dual_backplane_cluster
from repro.obs import MetricsRegistry, resolve_registry, use_registry
from repro.obs.spans import span_log
from repro.protocols import install_stacks
from repro.scenario.spec import ScenarioError, ScenarioSpec
from repro.simkit import Process, Simulator, TraceRecorder
from repro.viz import render_table


@dataclass
class ScenarioReport:
    """Everything a scenario run measured."""

    spec: ScenarioSpec
    duration_s: float
    routing_repairs: int
    route_changes: int
    faults_injected: int
    wire_bits: float
    wire_utilization: float
    workload_metrics: dict[str, Any] = field(default_factory=dict)
    repair_latencies: list[float] = field(default_factory=list)
    #: the cluster's TraceRecorder, kept so callers can dump a JSONL trace
    trace: TraceRecorder | None = None

    def render(self) -> str:
        """Human-readable report."""
        rows = [
            ["simulated duration (s)", self.duration_s],
            ["faults injected", self.faults_injected],
            ["routing repairs", self.routing_repairs],
            ["route changes", self.route_changes],
            ["wire bits carried", self.wire_bits],
            ["mean segment utilization", self.wire_utilization],
        ]
        if self.repair_latencies:
            rows.append(["mean repair latency (s)", float(np.mean(self.repair_latencies))])
            rows.append(["max repair latency (s)", float(max(self.repair_latencies))])
        for key, value in self.workload_metrics.items():
            rows.append([key, value])
        return render_table(["metric", "value"], rows, title=f"scenario: {self.spec.name}")


def _install_protocol(spec: ScenarioSpec, cluster, stacks):
    kind, options = spec.protocol_kind, dict(spec.protocol_options)
    if kind not in ROUTING_PROTOCOLS:
        raise ScenarioError(f"unknown protocol {kind!r}")
    config_type, install = ROUTING_PROTOCOLS[kind]
    try:
        if config_type is not None:
            return install(cluster, stacks, config_type(**options))
        if options:
            raise ScenarioError(f"{kind} protocol takes no options, got {sorted(options)}")
        return install(cluster, stacks)
    except TypeError as exc:
        raise ScenarioError(f"bad protocol options for {kind!r}: {exc}") from exc


def _start_workload(spec: ScenarioSpec, sim, cluster, stacks, rng):
    kind = spec.workload_kind
    options = dict(spec.workload_options)
    if kind == "none":
        return None, lambda: {}
    if kind == "stream":
        src = int(options.pop("src", 0))
        dst = int(options.pop("dst", 1))
        interval = float(options.pop("interval_s", 0.1))
        size = int(options.pop("message_bytes", 256))
        if options:
            raise ScenarioError(f"unknown stream options: {sorted(options)}")
        if not (0 <= src < spec.nodes and 0 <= dst < spec.nodes and src != dst):
            raise ScenarioError(f"stream src/dst out of range: {src}->{dst}")
        delivered: list[float] = []
        stacks[dst].tcp.listen(9000, on_message=lambda c, d, s: delivered.append(sim.now))
        conn = stacks[src].tcp.connect(dst, 9000, max_retries=20)

        def stream():
            while True:
                conn.send_message(data=sim.now, data_bytes=size)
                yield interval

        Process(sim, stream(), name="scenario.stream")

        def metrics():
            latencies = list(conn.message_latencies.values())
            return {
                "stream messages sent": conn.messages_sent,
                "stream messages delivered": len(latencies),
                "stream worst latency (s)": max(latencies) if latencies else float("nan"),
                "stream retransmissions": int(conn.retransmissions.value),
            }

        return None, metrics
    if kind == "voicemail":
        comm = install_messaging(sim, stacks)
        try:
            config = VoicemailConfig(**options)
        except TypeError as exc:
            raise ScenarioError(f"bad voicemail options: {exc}") from exc
        workload = VoicemailCluster(sim, comm, config, rng=rng)
        workload.start()

        def metrics():
            workload.collect_completions()
            stats = workload.stats
            return {
                "voicemail operations": stats.operations,
                "voicemail transfers": stats.transfers,
                "voicemail completion rate": stats.completion_rate(),
                "voicemail mean latency (s)": stats.mean_latency(),
                "voicemail stalled ops": stats.stalled,
            }

        return workload, metrics
    if kind == "mpi":
        comm = install_messaging(sim, stacks)
        try:
            config = MpiJobConfig(**options)
        except TypeError as exc:
            raise ScenarioError(f"bad mpi options: {exc}") from exc
        job = MpiRingJob(sim, comm, config)
        job.start()

        def metrics():
            return {
                "mpi job completed": job.done,
                "mpi iterations finished": job.stats.completed_iterations,
                "mpi median iteration (s)": job.stats.median_iteration_s(),
                "mpi slowest iteration (s)": job.stats.max_iteration_s(),
            }

        return job, metrics
    raise ScenarioError(f"unknown workload {kind!r}")


def run_scenario(spec: ScenarioSpec, metrics: MetricsRegistry | None = None) -> ScenarioReport:
    """Build, run, and measure one scenario.

    ``metrics`` scopes every component's observability counters/histograms to
    that registry for the duration of the run; by default they land in the
    process-wide registry.
    """
    with use_registry(resolve_registry(metrics)):
        return _run_scenario(spec)


def _run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    sim = Simulator()
    rng = np.random.default_rng(spec.seed)
    if spec.fabric == "switch":
        from repro.netsim import build_dual_switched_cluster

        if spec.loss_rate > 0:
            raise ScenarioError("loss_rate is only modelled on the hub fabric")
        cluster = build_dual_switched_cluster(sim, spec.nodes, bandwidth_bps=spec.bandwidth_bps)
    else:
        cluster = build_dual_backplane_cluster(
            sim,
            spec.nodes,
            bandwidth_bps=spec.bandwidth_bps,
            loss_rate=spec.loss_rate,
            rng=rng if spec.loss_rate > 0 else None,
        )
    stacks = install_stacks(cluster)
    _install_protocol(spec, cluster, stacks)

    script = FaultScenario()
    for step in spec.faults:
        if step.component not in {c.name for c in cluster.faults.components}:
            raise ScenarioError(f"unknown component {step.component!r} in fault script")
        if step.action == "fail":
            script.fail(step.at, step.component)
        else:
            script.repair(step.at, step.component)
    cluster.faults.schedule(script)

    _, workload_metrics = _start_workload(spec, sim, cluster, stacks, rng)
    sim.run(until=spec.duration_s)
    # Seal still-open spans (daemon lifetimes, unrepaired incidents) so the
    # trace artifact carries the complete causal record of the run.
    span_log(cluster.trace).flush()

    repairs = cluster.trace.entries("drs-repair") + cluster.trace.entries("reactive-repair")
    latencies = [e.fields["repair_latency"] for e in repairs if "repair_latency" in e.fields]
    route_changes = sum(stack.table.change_count for stack in stacks.values())
    wire_bits = sum(bp.bits_carried.value for bp in cluster.backplanes)
    utilization = float(np.mean([bp.utilization() for bp in cluster.backplanes]))
    return ScenarioReport(
        spec=spec,
        duration_s=sim.now,
        routing_repairs=len(repairs),
        route_changes=route_changes,
        faults_injected=len(spec.faults),
        wire_bits=wire_bits,
        wire_utilization=utilization,
        workload_metrics=workload_metrics(),
        repair_latencies=latencies,
        trace=cluster.trace,
    )
