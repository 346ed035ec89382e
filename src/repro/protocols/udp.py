"""UDP-style datagram service (carrier of DRS control messages)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.netsim.addresses import NetworkId, NodeId
from repro.protocols.ip import NetworkLayer
from repro.protocols.packet import UDP_HEADER_BYTES, Packet
from repro.simkit import Counter

DatagramHandler = Callable[["Datagram", NodeId, NetworkId], None]


@dataclass(slots=True)
class Datagram:
    """One UDP datagram: ports, declared data size, opaque application data."""

    src_port: int
    dst_port: int
    data: Any = None
    data_bytes: int = 0

    @property
    def size_bytes(self) -> int:
        """Header plus declared payload size."""
        return UDP_HEADER_BYTES + self.data_bytes


class UdpService:
    """Port-demultiplexed datagram delivery over the network layer."""

    PROTOCOL = "udp"

    def __init__(self, net: NetworkLayer) -> None:
        self.net = net
        self._ports: dict[int, DatagramHandler] = {}
        self.sent = Counter(f"udp{net.node.node_id}.sent")
        self.delivered = Counter(f"udp{net.node.node_id}.delivered")
        self.dropped_no_port = Counter(f"udp{net.node.node_id}.no_port")
        net.register_protocol(self.PROTOCOL, self._on_packet)

    def bind(self, port: int, handler: DatagramHandler) -> None:
        """Attach ``handler(datagram, src_node, arrived_on)`` to a local port."""
        if port in self._ports:
            raise ValueError(f"node {self.net.node.node_id}: UDP port {port} already bound")
        self._ports[port] = handler

    # ------------------------------------------------------------------ send
    def send(self, dst_node: NodeId, dst_port: int, data: Any = None, data_bytes: int = 0, src_port: int = 0) -> bool:
        """Routed datagram send; returns False if it never left this host."""
        dgram = Datagram(src_port=src_port, dst_port=dst_port, data=data, data_bytes=data_bytes)
        ok = self.net.send(dst_node, self.PROTOCOL, dgram)
        if ok:
            self.sent.add()
        return ok

    def send_direct(
        self, network: NetworkId, dst_node: NodeId, dst_port: int, data: Any = None, data_bytes: int = 0, src_port: int = 0
    ) -> bool:
        """Datagram out a specific network, bypassing routing (DRS control path)."""
        dgram = Datagram(src_port=src_port, dst_port=dst_port, data=data, data_bytes=data_bytes)
        ok = self.net.send_direct(network, dst_node, self.PROTOCOL, dgram)
        if ok:
            self.sent.add()
        return ok

    def broadcast(self, network: NetworkId, dst_port: int, data: Any = None, data_bytes: int = 0, src_port: int = 0) -> bool:
        """Broadcast datagram on one network (DRS route discovery)."""
        dgram = Datagram(src_port=src_port, dst_port=dst_port, data=data, data_bytes=data_bytes)
        ok = self.net.broadcast(network, self.PROTOCOL, dgram)
        if ok:
            self.sent.add()
        return ok

    # --------------------------------------------------------------- receive
    def _on_packet(self, packet: Packet, arrived_on: NetworkId) -> None:
        dgram: Datagram = packet.payload
        handler = self._ports.get(dgram.dst_port)
        if handler is None:
            self.dropped_no_port.add()
            return
        self.delivered.add()
        handler(dgram, packet.src_node, arrived_on)
