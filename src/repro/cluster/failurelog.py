"""Synthetic fleet failure log — the paper's motivation statistic.

"We evaluated one hundred deployed systems and found that over a one-year
period, thirteen percent of the hardware failures were network related."

The original log is proprietary; this generator produces a categorical
hardware-failure log for a fleet, with the category mix calibrated so the
network-related share (NICs, hubs, cabling) lands at the paper's 13%, and
re-derives the statistic from the generated events — so the motivation table
in the ``motivation`` experiment is computed, not hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Hardware categories and their relative failure weights.  The network
#: categories (nic, hub, cable) sum to 0.13 of the total — the calibration
#: target; the non-network mix follows typical fleet folklore (disks
#: dominate).
CATEGORY_WEIGHTS: dict[str, float] = {
    "disk": 0.42,
    "power-supply": 0.16,
    "memory": 0.12,
    "cpu": 0.07,
    "fan": 0.06,
    "motherboard": 0.04,
    "nic": 0.07,
    "hub": 0.04,
    "cable": 0.02,
}

NETWORK_CATEGORIES = frozenset({"nic", "hub", "cable"})


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """One hardware failure: when, which server, what broke."""

    time_days: float
    server: int
    category: str

    @property
    def network_related(self) -> bool:
        """True for NIC/hub/cabling failures."""
        return self.category in NETWORK_CATEGORIES


@dataclass(frozen=True)
class FailureLogConfig:
    """Fleet shape and failure intensity.

    ``failures_per_server_year`` ~ 1.1 gives a fleet of 100 servers roughly
    the low-hundreds of annual hardware events typical of late-90s server
    hardware (and enough samples for the 13% share to be stable).
    """

    servers: int = 100
    duration_days: float = 365.0
    failures_per_server_year: float = 1.1

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.failures_per_server_year <= 0:
            raise ValueError("failures_per_server_year must be positive")


def generate_failure_log(config: FailureLogConfig, rng: np.random.Generator) -> list[FailureEvent]:
    """Draw one fleet-year (or configured span) of hardware failures.

    Failures arrive per server as a Poisson process; categories are i.i.d.
    from :data:`CATEGORY_WEIGHTS`.
    """
    categories = list(CATEGORY_WEIGHTS)
    weights = np.array([CATEGORY_WEIGHTS[c] for c in categories])
    weights = weights / weights.sum()
    rate_per_day = config.failures_per_server_year / 365.0
    events: list[FailureEvent] = []
    for server in range(config.servers):
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_per_day))
            if t > config.duration_days:
                break
            category = categories[int(rng.choice(len(categories), p=weights))]
            events.append(FailureEvent(time_days=t, server=server, category=category))
    events.sort(key=lambda e: e.time_days)
    return events


def category_breakdown(events: list[FailureEvent]) -> dict[str, float]:
    """Fraction of failures per category (empty log -> empty dict)."""
    if not events:
        return {}
    counts: dict[str, int] = {}
    for event in events:
        counts[event.category] = counts.get(event.category, 0) + 1
    total = len(events)
    return {category: count / total for category, count in sorted(counts.items())}


def network_fraction(events: list[FailureEvent]) -> float:
    """The paper's statistic: share of failures that were network-related."""
    if not events:
        return 0.0
    return sum(1 for e in events if e.network_related) / len(events)


def to_fault_scenario(
    events: list[FailureEvent],
    cluster_nodes: int,
    mttr_days: float = 1.0,
    time_scale: float = 1.0,
):
    """Replay a fleet log's *network* failures as a DES fault script.

    Bridges the motivation data to the simulator: NIC events map to the
    corresponding server's NIC (alternating networks per event), hub/cable
    events to a backplane, each repaired ``mttr_days`` later.  ``time_scale``
    converts log days to simulation seconds (e.g. ``1.0`` = one sim-second
    per day, letting a fleet-year replay in ~365 simulated seconds).

    Only servers ``0..cluster_nodes-1`` are replayed; the fleet log usually
    covers more servers than one cluster holds.
    """
    from repro.netsim.faults import FaultScenario

    if cluster_nodes < 2:
        raise ValueError("cluster_nodes must be >= 2")
    if mttr_days <= 0 or time_scale <= 0:
        raise ValueError("mttr_days and time_scale must be positive")
    scenario = FaultScenario()
    nic_toggle: dict[int, int] = {}
    for index, event in enumerate(e for e in events if e.network_related):
        at = event.time_days * time_scale
        until = at + mttr_days * time_scale
        if event.category == "nic":
            if event.server >= cluster_nodes:
                continue
            net = nic_toggle.get(event.server, 0)
            nic_toggle[event.server] = 1 - net
            component = f"nic{event.server}.{net}"
        else:  # hub or cable: take a backplane down
            component = f"hub{index % 2}"
        scenario.fail(at, component)
        scenario.repair(until, component)
    return scenario
