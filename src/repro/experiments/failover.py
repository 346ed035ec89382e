"""EXP-DES — proactive DRS versus reactive baselines, end to end.

The paper's qualitative claim — "the DRS's proactive routing policy performs
better than traditional routing systems by fixing network problems before
they effect application communication" — measured: a TCP-lite application
stream runs across the cluster while a failure is injected, under five
routing regimes (DRS, reactive rerouting, RIP-like distance vector,
OSPF-like link state, static routes).  Reported per regime and scenario:

* application-visible outage (worst delivered-message latency),
* delivered fraction and whether the stream recovered at all,
* routing-layer repair latency (from the trace),
* steady-state probe/advertisement overhead on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import ROUTING_PROTOCOLS, DistVectorConfig, LinkStateConfig, ReactiveConfig
from repro.drs import DrsConfig
from repro.experiments.base import ExperimentResult
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import Process, Simulator

#: Comparable timing configurations: DRS probes each link once a second;
#: the reactive/DV baselines use a classic 3 s / 9 s query/timeout scaling.
CONFIGS = {
    "drs": DrsConfig(sweep_period_s=1.0, probe_timeout_s=0.02, probe_retries=2, discovery_timeout_s=0.05),
    "reactive": ReactiveConfig(query_interval_s=3.0, timeout_s=9.0),
    "distvector": DistVectorConfig(advertise_interval_s=3.0, timeout_s=9.0),
    "linkstate": LinkStateConfig(hello_interval_s=3.0, dead_interval_s=9.0),
}

SCENARIOS: dict[str, list[str]] = {
    "peer-nic": ["nic1.0"],
    "own-nic": ["nic0.0"],
    "hub": ["hub0"],
    "crossed": ["nic0.1", "nic1.0"],
}

PROTOCOLS = tuple(ROUTING_PROTOCOLS)


@dataclass
class FailoverOutcome:
    """Measured outcome of one (protocol, scenario) run."""

    protocol: str
    scenario: str
    sent: int
    delivered: int
    worst_latency_s: float
    recovered: bool
    repair_latency_s: float | None
    overhead_bps: float

    @property
    def delivered_fraction(self) -> float:
        """Share of application messages that were delivered."""
        return self.delivered / self.sent if self.sent else 0.0


def _install(protocol: str, cluster, stacks):
    if protocol not in ROUTING_PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    install = ROUTING_PROTOCOLS[protocol][1]
    if protocol in CONFIGS:
        return install(cluster, stacks, CONFIGS[protocol])
    return install(cluster, stacks)


def run_one(
    protocol: str,
    scenario: str,
    n: int = 6,
    warmup_s: float = 20.0,
    post_failure_s: float = 60.0,
    message_interval_s: float = 0.1,
    message_bytes: int = 256,
) -> FailoverOutcome:
    """Run one protocol/scenario combination and measure the app stream."""
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, n)
    stacks = install_stacks(cluster)
    _install(protocol, cluster, stacks)

    delivered: list[float] = []
    stacks[1].tcp.listen(9000, on_message=lambda conn, data, size: delivered.append(sim.now))
    conn = stacks[0].tcp.connect(1, 9000, initial_rto_s=1.0, max_retries=12, window_segments=16)
    sent_count = 0

    def app_stream():
        nonlocal sent_count
        while True:
            conn.send_message(data=sim.now, data_bytes=message_bytes)
            sent_count += 1
            yield message_interval_s

    Process(sim, app_stream(), name="app")
    sim.run(until=warmup_s)

    # measure steady-state control overhead over the last part of the warmup
    overhead_window = warmup_s / 2
    bits_mid = sum(bp.bits_carried.value for bp in cluster.backplanes)
    sim.run(until=warmup_s + overhead_window)
    bits_end = sum(bp.bits_carried.value for bp in cluster.backplanes)
    app_bits = overhead_window / message_interval_s * (message_bytes + 58 + 20) * 8 * 2  # rough data+ack
    overhead_bps = max(0.0, (bits_end - bits_mid - app_bits) / overhead_window)

    t_fail = sim.now
    for component in SCENARIOS[scenario]:
        cluster.faults.fail(component)
    sim.run(until=t_fail + post_failure_s)

    latencies = conn.message_latencies
    worst = max(latencies.values()) if latencies else float("inf")
    # recovered: a message sent well after the failure got delivered
    recovered = bool(delivered) and delivered[-1] > t_fail + post_failure_s * 0.8

    repair_events = [
        e
        for category in ("drs-repair", "reactive-repair", "dv-route-change", "ls-route-change")
        for e in cluster.trace.entries(category)
        if e.time > t_fail and e.fields.get("node") == 0
    ]
    repair_latency = min((e.time - t_fail) for e in repair_events) if repair_events else None

    return FailoverOutcome(
        protocol=protocol,
        scenario=scenario,
        sent=sent_count,
        delivered=len(latencies),
        worst_latency_s=worst,
        recovered=recovered,
        repair_latency_s=repair_latency,
        overhead_bps=overhead_bps,
    )


def run(
    protocols: tuple[str, ...] = PROTOCOLS,
    scenarios: tuple[str, ...] = tuple(SCENARIOS),
    n: int = 6,
    post_failure_s: float = 60.0,
) -> ExperimentResult:
    """Full protocol x scenario comparison matrix."""
    result = ExperimentResult("failover")
    rows = []
    for scenario in scenarios:
        for protocol in protocols:
            outcome = run_one(protocol, scenario, n=n, post_failure_s=post_failure_s)
            rows.append(
                [
                    scenario,
                    protocol,
                    outcome.delivered_fraction,
                    outcome.worst_latency_s,
                    outcome.repair_latency_s if outcome.repair_latency_s is not None else float("nan"),
                    outcome.recovered,
                    outcome.overhead_bps / 1e3,
                ]
            )
    result.add_table(
        "matrix",
        ["scenario", "protocol", "delivered", "worst latency (s)", "repair latency (s)", "recovered", "overhead (kb/s)"],
        rows,
        caption="Application stream across an injected failure, per routing regime",
    )
    result.note(
        "expected shape: DRS repairs within ~1 sweep (worst app latency around the "
        "TCP RTO), reactive/DV repair only after their multi-second timeout, and "
        "static routing never recovers on the failed network."
    )
    return result
