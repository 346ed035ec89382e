"""Topology builders for the paper's cluster architecture."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.netsim.addresses import InterfaceAddr
from repro.netsim.backplane import Backplane
from repro.netsim.faults import FaultInjector, component_universe
from repro.netsim.nic import Nic
from repro.netsim.node import Node
from repro.netsim.segment import Segment
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.simkit import Simulator, TraceRecorder


@dataclass
class Cluster:
    """A built dual-segment cluster: nodes, two hubs or switches, faults, shared trace."""

    sim: Simulator
    nodes: list[Node]
    backplanes: list[Segment]
    faults: FaultInjector
    trace: TraceRecorder
    #: shared metrics registry every component of this cluster publishes into
    metrics: MetricsRegistry | None = None

    @property
    def n(self) -> int:
        """Number of server nodes."""
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """The node with the given id (ids are dense 0..n-1)."""
        return self.nodes[node_id]


def build_dual_backplane_cluster(
    sim: Simulator,
    n: int,
    bandwidth_bps: float = 100e6,
    prop_delay_s: float = 5e-6,
    trace: TraceRecorder | None = None,
    loss_rate: float = 0.0,
    rng=None,
    metrics: MetricsRegistry | None = None,
) -> Cluster:
    """Build the paper's topology: ``n`` dual-NIC servers on two hubs.

    Every server gets one NIC on each of two separate, non-meshed backplanes.
    The returned :class:`Cluster` carries a :class:`FaultInjector` whose
    component ordering matches the analytic model (hubs first, then node
    NICs pairwise) so exactly-f injections correspond 1:1 with Equation 1.

    Parameters
    ----------
    sim:
        Simulator to build into.
    n:
        Number of servers; the deployed clusters had 8-12, Figure 2 sweeps
        up to 64.
    bandwidth_bps, prop_delay_s:
        Segment characteristics (defaults: the paper's 100 Mb/s).
    trace:
        Shared trace recorder; a fresh one is created if omitted.
    loss_rate, rng:
        Optional random per-frame loss on both segments (see
        :class:`~repro.netsim.backplane.Backplane`).
    """
    return _build_dual_cluster(
        sim,
        n,
        trace,
        metrics,
        lambda net, trace, registry: Backplane(
            sim, net, bandwidth_bps, prop_delay_s, trace, loss_rate, rng, registry
        ),
    )


def _build_dual_cluster(
    sim: Simulator,
    n: int,
    trace: TraceRecorder | None,
    metrics: MetricsRegistry | None,
    make_segment: Callable[[int, TraceRecorder, MetricsRegistry], Segment],
) -> Cluster:
    """``n`` dual-NIC nodes on two segments from ``make_segment(net, trace, registry)``.

    The one place nodes, NICs, the :class:`Cluster` and its fault injector
    are put together, whatever the fabric: every component publishes into
    the one resolved registry and records into the one trace.
    """
    if n < 2:
        raise ValueError(f"a cluster needs at least 2 nodes, got {n}")
    if trace is None:
        trace = TraceRecorder(sim)
    registry = resolve_registry(metrics)
    segments = [make_segment(net, trace, registry) for net in (0, 1)]
    nodes: list[Node] = []
    for i in range(n):
        node = Node(sim, node_id=i)
        for net in (0, 1):
            node.add_nic(
                Nic(InterfaceAddr(node=i, network=net), segments[net], trace=trace, metrics=registry)
            )
        nodes.append(node)
    cluster = Cluster(
        sim=sim, nodes=nodes, backplanes=segments, faults=None, trace=trace, metrics=registry  # type: ignore[arg-type]
    )
    cluster.faults = FaultInjector(sim, component_universe(cluster), trace=trace)
    return cluster
