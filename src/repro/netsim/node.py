"""Server node: a chassis holding NICs and dispatching frames upward."""

from __future__ import annotations

from repro.netsim.addresses import InterfaceAddr, NetworkId, NodeId
from repro.netsim.frames import Frame
from repro.netsim.nic import FrameHandler, Nic
from repro.simkit import Simulator


class Node:
    """One server in the cluster.

    The node layer is deliberately protocol-agnostic: it owns the NICs and a
    demultiplexer keyed on :attr:`Frame.protocol`.  The protocol stack in
    :mod:`repro.protocols` registers its handlers here, which keeps the
    physical substrate reusable for the baseline protocols too.
    """

    def __init__(self, sim: Simulator, node_id: NodeId) -> None:
        self.sim = sim
        self.node_id = node_id
        self.nics: dict[NetworkId, Nic] = {}
        self._handlers: dict[str, FrameHandler] = {}

    def add_nic(self, nic: Nic) -> None:
        """Install a NIC; one per network."""
        net = nic.addr.network
        if net in self.nics:
            raise ValueError(f"node {self.node_id} already has a NIC on network {net}")
        if nic.addr.node != self.node_id:
            raise ValueError(f"NIC {nic.addr} does not belong to node {self.node_id}")
        nic.use_handlers(self._handlers)
        self.nics[net] = nic

    def register_handler(self, protocol: str, handler: FrameHandler) -> None:
        """Register the upper-layer handler for a protocol demux key."""
        if protocol in self._handlers:
            raise ValueError(f"node {self.node_id}: handler for {protocol!r} already registered")
        self._handlers[protocol] = handler

    # ------------------------------------------------------------------ send
    def send_frame(self, network: NetworkId, dst: InterfaceAddr, protocol: str, payload: object) -> bool:
        """Transmit one frame out of the NIC on ``network``.

        Returns False if this node has no NIC there or the NIC refused it.
        """
        nic = self.nics.get(network)
        if nic is None:
            return False
        return nic.send(Frame(nic.addr, dst, protocol, payload))

    @property
    def networks(self) -> list[NetworkId]:
        """Networks this node is attached to, sorted."""
        return sorted(self.nics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id} nets={self.networks}>"
