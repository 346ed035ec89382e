"""Per-host protocol bundle and the cluster-wide installer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.node import Node
from repro.netsim.topology import Cluster
from repro.protocols.icmp import IcmpService
from repro.protocols.ip import NetworkLayer
from repro.protocols.routing import RoutingTable
from repro.protocols.tcp import TcpStack
from repro.protocols.udp import UdpService
from repro.simkit import Simulator, TraceRecorder


@dataclass
class HostStack:
    """Everything one server runs above its NICs."""

    node: Node
    table: RoutingTable
    net: NetworkLayer
    icmp: IcmpService
    udp: UdpService
    tcp: TcpStack


def build_host_stack(sim: Simulator, node: Node, trace: TraceRecorder | None = None) -> HostStack:
    """Assemble the full stack on one node."""
    table = RoutingTable(owner=node.node_id)
    net = NetworkLayer(node, table, trace=trace)
    return HostStack(
        node=node,
        table=table,
        net=net,
        icmp=IcmpService(sim, net, trace=trace),
        udp=UdpService(net),
        tcp=TcpStack(sim, net),
    )


def install_stacks(cluster: Cluster, primary_network: int = 0) -> dict[int, HostStack]:
    """Install a stack on every cluster node with boot-time static routes.

    The static table sends everything direct on ``primary_network`` — the
    deployed configuration the paper starts from, which DRS then repairs
    around failures.  All stacks publish into the current metrics registry.
    """
    stacks: dict[int, HostStack] = {}
    node_ids = [node.node_id for node in cluster.nodes]
    for node in cluster.nodes:
        stack = build_host_stack(cluster.sim, node, trace=cluster.trace)
        stack.table.install_defaults(node_ids, network=primary_network)
        stacks[node.node_id] = stack
    return stacks
