"""Scenario execution: build the stack from a spec, drive it, report.

The one recipe for a live-protocol run: every DES experiment states its
replicate as a :class:`~repro.scenario.spec.ScenarioSpec` and reads the
:class:`ScenarioReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import inf
from operator import attrgetter
from typing import Any, Sequence

import numpy as np

from repro.netsim import FaultScenario, build_dual_backplane_cluster
from repro.obs import MetricsRegistry, resolve_registry, use_registry
from repro.obs.spans import span_log
from repro.protocols import PingStatus, install_stacks
from repro.scenario.spec import ROUTING_PROTOCOLS, WORKLOADS, ScenarioError, ScenarioSpec, Warmup
from repro.simkit import Simulator, TraceEntry, TraceRecorder
from repro.viz import render_table

#: where each regime records a route it installs after a failure
REPAIR_CATEGORIES = ("drs-repair", "reactive-repair", "dv-route-change", "ls-route-change")
PING_TIMEOUT_S = 0.05  #: the post-run ping's echo timeout
PING_WAIT_S = 0.2  #: how long the run goes on for the ping


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
    #: per segment, the bits carried inside the spec's ``window_s`` (empty without one)
    window_bits: tuple[float, ...] = ()
    #: each regime's repair entries and DRS's DOWN declarations after the warm-up boundary (the
    #: whole run without one), in time order, each naming its ``node`` and ``peer`` (or ``dst``)
    repairs: list[TraceEntry] = field(default_factory=list)
    detections: list[TraceEntry] = field(default_factory=list)
    #: whether the post-run ping 0 -> 1 was answered (None when the spec asks none)
    ping_ok: bool | None = None

    def time_to_repair(self, node: int, peer: int | None = None) -> float | None:
        """Seconds from the warm-up boundary (the start, without one) to ``node``'s first repair.

        With ``peer``, the first repair of a route to that peer; None when there is none.
        """
        start = self.spec.warmup.until_s if self.spec.warmup else 0.0
        for entry in self.repairs:
            if entry.fields["node"] == node and peer in (None, entry.fields.get("peer", entry.fields.get("dst"))):
                return entry.time - start
        return None

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
        if self.ping_ok is not None:
            rows.append(["ping 0 -> 1", "reply" if self.ping_ok else "no reply"])
        for key, value in self.workload_metrics.items():
            rows.append([key, value])
        return render_table(["metric", "value"], rows, title=f"scenario: {self.spec.name}")


# every DES experiment runs DRS, the failover matrix under a stream: load both now, not inside a run's wall clock
ROUTING_PROTOCOLS["drs"].starter()
WORKLOADS["stream"].starter()


def run_scenario(spec: ScenarioSpec, metrics: MetricsRegistry | None = None) -> ScenarioReport:
    """Build, run, and measure one scenario.

    ``metrics`` scopes every component's observability counters/histograms to
    that registry for the duration of the run; by default they land in the
    process-wide registry.
    """
    with use_registry(resolve_registry(metrics)):
        sim = Simulator()
        rng = np.random.default_rng(spec.seed)
        if spec.fabric == "switch":
            from repro.netsim import build_dual_switched_cluster

            if spec.loss_rate > 0:
                raise ScenarioError("loss_rate is only modelled on the hub fabric")
            cluster = build_dual_switched_cluster(sim, spec.nodes, bandwidth_bps=spec.bandwidth_bps)
        else:
            loss_rng = rng if spec.loss_rate > 0 else None
            cluster = build_dual_backplane_cluster(
                sim, spec.nodes, bandwidth_bps=spec.bandwidth_bps, loss_rate=spec.loss_rate, rng=loss_rng
            )
        cluster.trace.enabled = spec.trace
        stacks = install_stacks(cluster)
        protocol = ROUTING_PROTOCOLS[spec.protocol_kind]
        protocol.starter()(cluster, stacks, protocol.configure(spec.protocol_options))

        warmup = spec.warmup
        names = {c.name for c in cluster.faults.components}
        for component in [*(step.component for step in spec.faults), *(warmup.fail if warmup else ())]:
            if component not in names:
                raise ScenarioError(f"unknown component {component!r} in fault script")
        script = FaultScenario()
        for step in spec.faults:
            (script.fail if step.action == "fail" else script.repair)(step.at, step.component)
        cluster.faults.schedule(script)

        plug_in = WORKLOADS[spec.workload_kind]
        workload = plug_in.starter()(sim, stacks, plug_in.configure(spec.workload_options), rng)
        # stop at each window end and the boundary; its fault step lands between two runs
        window = spec.window_s or ()
        window_ends = []
        for stop in sorted({spec.duration_s, *window, *([warmup.until_s] if warmup else [])}):
            sim.run(until=stop)
            if stop in window:
                window_ends.append([segment.bits_carried.value for segment in cluster.backplanes])
            if warmup and stop == warmup.until_s:
                if warmup.fail_exactly is not None:
                    cluster.faults.apply_exact_failures(warmup.fail_exactly, rng)
                for component in warmup.fail:
                    cluster.faults.fail(component)
        replies: list = []
        if spec.ping:
            stacks[0].icmp.ping(1, timeout_s=PING_TIMEOUT_S, callback=replies.append)
            sim.run(until=sim.now + PING_WAIT_S)
        # Seal still-open spans (daemon lifetimes, unrepaired incidents) so the
        # trace artifact carries the complete causal record of the run.
        span_log(cluster.trace).flush()
        repairs = cluster.trace.entries("drs-repair") + cluster.trace.entries("reactive-repair")
        after = warmup.until_s if warmup else -inf
        return ScenarioReport(
            spec=spec,
            duration_s=sim.now,
            routing_repairs=len(repairs),
            route_changes=sum(stack.table.change_count for stack in stacks.values()),
            faults_injected=len(spec.faults) + (len(warmup.fail) + (warmup.fail_exactly or 0) if warmup else 0),
            wire_bits=sum(bp.bits_carried.value for bp in cluster.backplanes),
            wire_utilization=float(np.mean([bp.utilization() for bp in cluster.backplanes])),
            workload_metrics=workload.metrics(),
            repair_latencies=[e.fields["repair_latency"] for e in repairs if "repair_latency" in e.fields],
            trace=cluster.trace,
            window_bits=tuple(end - start for start, end in zip(*window_ends)),
            repairs=_after(cluster.trace, REPAIR_CATEGORIES, after),
            detections=_after(cluster.trace, ("drs-detect",), after),
            ping_ok=(bool(replies) and replies[0].status is PingStatus.REPLY) if spec.ping else None,
        )


def peer_nic_failures(
    spec: ScenarioSpec, repeats: int, seeds: Sequence[Any] | None = None
) -> tuple[float, list[ScenarioReport]]:
    """Run ``spec`` ``repeats`` times, each failing one peer's network-0 NIC at its warm-up boundary.

    Repeat ``i`` fails node ``1 + i % (nodes - 1)`` and, given ``seeds``, runs
    on ``seeds[i]``.  Returns node 0's mean time to repair a route to the
    failed peer (NaN when no run repaired one) and every run's report.
    """
    latencies, reports = [], []
    for i in range(repeats):
        victim = 1 + i % (spec.nodes - 1)
        warmup = Warmup(spec.warmup.until_s, fail=(f"nic{victim}.0",))
        report = run_scenario(replace(spec, warmup=warmup, seed=spec.seed if seeds is None else seeds[i]))
        latency = report.time_to_repair(0, victim)
        if latency is not None:
            latencies.append(latency)
        reports.append(report)
    return (float(np.mean(latencies)) if latencies else float("nan")), reports


def _after(trace: TraceRecorder, categories: tuple[str, ...], start: float) -> list[TraceEntry]:
    """The entries of ``categories`` strictly after ``start``, in time order."""
    return sorted((e for c in categories for e in trace.iter_entries(c) if e.time > start), key=attrgetter("time"))
