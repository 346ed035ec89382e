"""L3 datagrams and protocol header sizes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.netsim.addresses import NodeId

IP_HEADER_BYTES = 20    #: IPv4 header without options
ICMP_HEADER_BYTES = 8   #: ICMP type/code/checksum/id/seq
UDP_HEADER_BYTES = 8    #: UDP src/dst port, length, checksum
TCP_HEADER_BYTES = 20   #: TCP header without options

DEFAULT_TTL = 16        #: small diameter: cluster paths are at most 2 hops

_next_packet_id = itertools.count().__next__


@dataclass(slots=True)
class Packet:
    """A network-layer datagram.

    ``payload`` is the L4 message (ICMP echo, UDP datagram, TCP segment);
    it must expose ``size_bytes``.  The packet's own ``size_bytes`` includes
    the IP header, so the L2 frame can compute wire occupancy directly.
    """

    src_node: NodeId
    dst_node: NodeId
    protocol: str
    payload: Any
    ttl: int = DEFAULT_TTL
    packet_id: int = field(default_factory=_next_packet_id)

    @property
    def size_bytes(self) -> int:
        """IP header plus L4 payload size."""
        return IP_HEADER_BYTES + int(self.payload.size_bytes)

    def __str__(self) -> str:
        return (
            f"Packet#{self.packet_id}[{self.src_node}->{self.dst_node} "
            f"{self.protocol} ttl={self.ttl} {self.size_bytes}B]"
        )
