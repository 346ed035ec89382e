"""Network layer: routed send, forwarding, and L4 demultiplexing."""

from __future__ import annotations

from typing import Any, Callable

from repro.netsim.addresses import BROADCAST_NODE, InterfaceAddr, NetworkId, NodeId
from repro.netsim.frames import Frame
from repro.netsim.nic import Nic
from repro.netsim.node import Node
from repro.protocols.packet import DEFAULT_TTL, Packet
from repro.protocols.routing import RoutingTable
from repro.simkit import Counter, TraceRecorder

#: Frame-level demux key for all network-layer traffic.
FRAME_PROTOCOL = "ipv4"

PacketHandler = Callable[[Packet, NetworkId], None]


class _AddressBook(dict):
    """``(node, network) -> InterfaceAddr``: one address each, built on first lookup."""

    def __missing__(self, key: tuple[NodeId, NetworkId]) -> InterfaceAddr:
        addr = self[key] = InterfaceAddr(*key)
        return addr


class NetworkLayer:
    """Per-host IP-like layer: routing-table send, forwarding, demux.

    Every host can forward — that is what lets a DRS intermediate carry the
    two-hop repair path.  Loops are bounded by TTL, and the DRS invariant
    (repair routes are only installed via intermediates whose *direct*
    connectivity to both endpoints has been verified) keeps steady-state
    paths at most two hops.
    """

    def __init__(self, node: Node, table: RoutingTable, trace: TraceRecorder | None = None) -> None:
        self.node = node
        self.node_id = node.node_id
        self.table = table
        self.trace = trace
        self._protocols: dict[str, PacketHandler] = {}
        self._addrs = _AddressBook()
        self.sent = Counter(f"ip{node.node_id}.sent")
        self.forwarded = Counter(f"ip{node.node_id}.forwarded")
        self.delivered = Counter(f"ip{node.node_id}.delivered")
        self.dropped_no_route = Counter(f"ip{node.node_id}.no_route")
        self.dropped_ttl = Counter(f"ip{node.node_id}.ttl_expired")
        node.register_handler(FRAME_PROTOCOL, self._on_frame)

    # ----------------------------------------------------------------- demux
    def register_protocol(self, protocol: str, handler: PacketHandler) -> None:
        """Register the L4 handler for ``protocol`` (icmp/udp/tcp/...)."""
        if protocol in self._protocols:
            raise ValueError(f"node {self.node.node_id}: protocol {protocol!r} already registered")
        self._protocols[protocol] = handler

    # ------------------------------------------------------------------ send
    def send(self, dst_node: NodeId, protocol: str, payload: Any, ttl: int = DEFAULT_TTL) -> bool:
        """Send an L4 payload to ``dst_node`` using the routing table.

        Returns False when no route exists or the outgoing NIC refused the
        frame; True means the packet left this host (not that it arrived).
        """
        packet = Packet(src_node=self.node_id, dst_node=dst_node, protocol=protocol, payload=payload, ttl=ttl)
        return self._route_out(packet)

    def send_direct(self, network: NetworkId, dst_node: NodeId, protocol: str, payload: Any) -> bool:
        """Send to ``dst_node``'s NIC on a *specific* network, bypassing routes.

        The DRS monitor uses this: each probe tests one physical link, so it
        must not be rerouted around the very failure it is looking for.
        """
        # positional: every probe and reply is built here, and a keyword
        # call to a dataclass costs ~0.4 µs more (docs/architecture.md)
        packet = Packet(self.node_id, dst_node, protocol, payload, 1)
        sent = self.node.send_frame(network, self._addrs[dst_node, network], FRAME_PROTOCOL, packet)
        if sent:
            self.sent.add()
        return sent

    def broadcast(self, network: NetworkId, protocol: str, payload: Any) -> bool:
        """Broadcast on one network (DRS route-discovery requests)."""
        packet = Packet(src_node=self.node_id, dst_node=BROADCAST_NODE, protocol=protocol, payload=payload, ttl=1)
        sent = self.node.send_frame(network, self._addrs[BROADCAST_NODE, network], FRAME_PROTOCOL, packet)
        if sent:
            self.sent.add()
        return sent

    def _route_out(self, packet: Packet, forwarding: bool = False) -> bool:
        route = self.table.lookup(packet.dst_node)
        if route is None:
            self.dropped_no_route.add()
            if self.trace is not None:
                self.trace.record("no-route", node=self.node_id, packet=str(packet))
            return False
        dst = self._addrs[route.next_hop, route.network]
        sent = self.node.send_frame(route.network, dst, FRAME_PROTOCOL, packet)
        if sent:
            (self.forwarded if forwarding else self.sent).add()
        return sent

    # --------------------------------------------------------------- receive
    def _on_frame(self, frame: Frame, nic: Nic) -> None:
        packet: Packet = frame.payload
        if packet.dst_node == self.node_id or frame.dst.node == BROADCAST_NODE:
            self.delivered.add()
            handler = self._protocols.get(packet.protocol)
            if handler is not None:
                handler(packet, nic.addr.network)
            return
        # Forwarding role: this host is an intermediate router.
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.dropped_ttl.add()
            if self.trace is not None:
                self.trace.record("ttl-expired", node=self.node_id, packet=str(packet))
            return
        self._route_out(packet, forwarding=True)
