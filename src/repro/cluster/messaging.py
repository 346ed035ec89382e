"""MPI-flavoured message layer over TCP-lite.

``ClusterComm`` gives the workloads a familiar tagged send/receive interface
while inheriting reliability (and failure sensitivity!) from the transport:
when the network breaks, message latencies stretch by exactly the outage the
routing layer could not hide — which is the application-visible metric the
failover experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.netsim.addresses import NodeId
from repro.protocols.stack import HostStack
from repro.protocols.tcp import TcpConnection
from repro.simkit import Counter, Simulator

#: Well-known TCP port of the messaging endpoint.
MSG_PORT = 7000

ReceiveHandler = Callable[[NodeId, str, Any, int], None]


@dataclass(frozen=True, slots=True)
class _Envelope:
    """What actually travels as TCP message data."""

    src: NodeId
    tag: str
    payload: Any


class Endpoint:
    """One node's messaging endpoint: lazy outbound connections, one inbox."""

    def __init__(self, sim: Simulator, stack: HostStack) -> None:
        self.sim = sim
        self.stack = stack
        self._out: dict[NodeId, TcpConnection] = {}
        self._handlers: list[ReceiveHandler] = []
        self.sent = Counter(f"msg{stack.node.node_id}.sent")
        self.received = Counter(f"msg{stack.node.node_id}.received")
        #: completion time of every delivered outbound message, by handle
        self.delivery_latencies: list[float] = []
        stack.tcp.listen(MSG_PORT, on_message=self._on_message)

    @property
    def node_id(self) -> NodeId:
        """The node this endpoint runs on."""
        return self.stack.node.node_id

    # ------------------------------------------------------------------ send
    def send(self, dst: NodeId, tag: str, payload: Any = None, size_bytes: int = 0) -> int:
        """Reliably send a tagged message; returns the transport message id."""
        if dst == self.node_id:
            raise ValueError("self-sends do not traverse the network; deliver locally instead")
        from repro.protocols.tcp import TcpState

        conn = self._out.get(dst)
        if conn is None or conn.state in (TcpState.CLOSED, TcpState.FAILED, TcpState.FIN_SENT):
            conn = self.stack.tcp.connect(dst, MSG_PORT)
            self._out[dst] = conn
        msg_id = conn.send_message(data=_Envelope(src=self.node_id, tag=tag, payload=payload), data_bytes=size_bytes)
        self.sent.add()
        return msg_id

    def broadcast(self, tag: str, payload: Any, size_bytes: int, peers: list[NodeId]) -> list[int]:
        """Send the same message to every peer (sequential unicast, like PVM)."""
        return [self.send(p, tag, payload, size_bytes) for p in peers if p != self.node_id]

    def latency_of(self, dst: NodeId, msg_id: int) -> float | None:
        """Delivery (cumulative-ACK) latency of a sent message, if known yet."""
        conn = self._out.get(dst)
        if conn is None:
            return None
        return conn.message_latencies.get(msg_id)

    # --------------------------------------------------------------- receive
    def on_receive(self, handler: ReceiveHandler) -> None:
        """Register ``handler(src, tag, payload, size_bytes)`` for deliveries."""
        self._handlers.append(handler)

    def _on_message(self, conn: TcpConnection, data: Any, size: int) -> None:
        envelope: _Envelope = data
        self.received.add()
        for handler in self._handlers:
            handler(envelope.src, envelope.tag, envelope.payload, size)


@dataclass
class ClusterComm:
    """All endpoints of one cluster."""

    endpoints: dict[NodeId, Endpoint] = field(default_factory=dict)

    def endpoint(self, node_id: NodeId) -> Endpoint:
        """The endpoint on one node."""
        return self.endpoints[node_id]


def install_messaging(sim: Simulator, stacks: dict[NodeId, HostStack]) -> ClusterComm:
    """Create an endpoint on every node."""
    return ClusterComm(endpoints={nid: Endpoint(sim, stack) for nid, stack in stacks.items()})
