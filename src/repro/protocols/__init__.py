"""Host protocol stack layered over :mod:`repro.netsim`.

The stack mirrors the slice of TCP/IP the DRS paper's clusters ran:

* :mod:`~repro.protocols.packet` — the L3 datagram and header-size constants,
* :mod:`~repro.protocols.routing` — the per-host routing table DRS rewrites,
  and the :class:`Deployment` every routing regime installs,
* :mod:`~repro.protocols.ip` — forwarding network layer with TTL-based loop
  protection (nodes can act as routers, which is how DRS two-hop repair
  routes traffic around failures),
* :mod:`~repro.protocols.icmp` — echo request/reply, both routed and
  per-network direct (the DRS monitor probes each physical network
  explicitly),
* :mod:`~repro.protocols.udp` — datagram service used by DRS control
  messages,
* :mod:`~repro.protocols.tcp` — a reliable message stream with RTO and
  exponential backoff, used to measure whether failover beats the
  application-visible retransmission timeout,
* :mod:`~repro.protocols.stack` — the per-host bundle and cluster installer.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "packet": [
            "Packet",
            "IP_HEADER_BYTES",
            "ICMP_HEADER_BYTES",
            "UDP_HEADER_BYTES",
            "TCP_HEADER_BYTES",
        ],
        "routing": ["Route", "RouteSource", "RoutingTable", "Deployment"],
        "ip": ["NetworkLayer"],
        "icmp": ["IcmpService", "EchoRequest", "EchoReply", "PingResult", "PingStatus"],
        "udp": ["UdpService", "Datagram"],
        "tcp": ["TcpStack", "TcpConnection", "TcpSegment"],
        "stack": ["HostStack", "build_host_stack", "install_stacks"],
    },
)
