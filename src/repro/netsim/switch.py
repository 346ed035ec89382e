"""Switched-fabric substrate: the modern alternative to the paper's hubs.

The deployed clusters used shared-medium hubs — one collision domain per
backplane, which is why Figure 1's probe budget divides a single 100 Mb/s
pipe.  This module models the hardware that replaced them: a store-and-
forward **learning switch** with a dedicated full-duplex link per port.

Performance semantics differ from :class:`~repro.netsim.backplane.Backplane`:

* each port's ingress and egress serialize independently at the link rate
  (no shared-medium contention; aggregate throughput scales with ports),
* store-and-forward adds one full frame-reception before forwarding,
* unknown destinations are flooded and source addresses are learned,
  like a real L2 switch.

Failure semantics are identical: the switch is still one shared component
whose death severs the whole segment — so the paper's survivability model
(Equation 1) applies to switched clusters unchanged, while the *cost* model
(Figure 1) relaxes: probe sweeps no longer compete for one medium.
``examples/switched_fabric.py`` and ``tests/netsim/test_switch.py`` show
both statements side by side.

The class is a :class:`~repro.netsim.segment.Segment` like ``Backplane``
(same attachment, counters, drops and registry rows), so NICs, protocols,
and DRS run unmodified and both fabrics are read by one instrument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.addresses import BROADCAST_NODE, NetworkId
from repro.netsim.frames import Frame
from repro.netsim.segment import Segment
from repro.netsim.topology import Cluster, _build_dual_cluster
from repro.obs.metrics import MetricsRegistry
from repro.simkit import Counter, Simulator, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.netsim.nic import Nic


class Switch(Segment):
    """A learning store-and-forward switch with per-port full-duplex links."""

    def __init__(
        self,
        sim: Simulator,
        network_id: NetworkId,
        bandwidth_bps: float = 100e6,
        prop_delay_s: float = 5e-6,
        switching_delay_s: float = 10e-6,
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, f"switch{network_id}", network_id, bandwidth_bps, prop_delay_s, trace, metrics)
        if switching_delay_s < 0:
            raise ValueError(f"switching_delay_s must be >= 0, got {switching_delay_s}")
        self.switching_delay_s = float(switching_delay_s)
        #: per-port link busy-until times, per direction (absent: never used, free)
        self._ingress_free: dict[int, float] = {}
        self._egress_free: dict[int, float] = {}
        #: the learning table: node id -> port (node id); ages not modelled
        self.mac_table: dict[int, int] = {}
        self.frames_flooded = Counter(f"{self.name}.floods")

    # ------------------------------------------------------------- transport
    def transmit(self, frame: Frame, sender: "Nic") -> None:
        """Serialize the frame up the sender's port, then switch it."""
        if not self.up:
            self._drop(frame, reason="switch-down")
            return
        port = sender.addr.node
        done = self._ingress_free[port] = self._carry(frame, self._ingress_free.get(port, 0.0))
        # store-and-forward: the switch acts once the whole frame is in
        self.sim.schedule_at(done + self.switching_delay_s, lambda: self._switch(frame, port))

    def _switch(self, frame: Frame, ingress_port: int) -> None:
        if not self.up:
            self._drop(frame, reason="switch-died-in-flight")
            return
        self.mac_table[frame.src.node] = ingress_port
        dst_node = frame.dst.node
        if dst_node == BROADCAST_NODE:
            for port in self._nics:
                if port != ingress_port:
                    self._egress(frame, port)
            return
        port = self.mac_table.get(dst_node)
        if port is None:
            # unknown unicast: flood (the real thing; also how the first
            # frame to a silent host finds it)
            self.frames_flooded.add()
            delivered_any = False
            for p in self._nics:
                if p != ingress_port:
                    self._egress(frame, p)
                    delivered_any = True
            if not delivered_any:
                self._drop(frame, reason="no-port")
        elif port == ingress_port:
            self._drop(frame, reason="hairpin")  # dst learned on the sender's own port
        else:
            self._egress(frame, port)

    def _egress(self, frame: Frame, port: int) -> None:
        nic = self._nics.get(port)
        if nic is None:
            self._drop(frame, reason="no-port")
            return
        tx_time = frame.wire_bits / self.bandwidth_bps
        start = max(self.sim.now, self._egress_free.get(port, 0.0))
        done = start + tx_time
        self._egress_free[port] = done

        def deliver(nic=nic, frame=frame):
            if not self.up:
                self._drop(frame, reason="switch-died-in-flight")
                return
            # only the addressed (or broadcast-reached) NIC consumes it;
            # flooded copies to the wrong host are dropped by addressing
            dst_node = frame.dst.node
            if dst_node == BROADCAST_NODE or dst_node == nic.addr.node:
                nic.deliver(frame)

        self.sim.schedule_at(done + self.prop_delay_s, deliver)


def build_dual_switched_cluster(
    sim: Simulator,
    n: int,
    bandwidth_bps: float = 100e6,
    prop_delay_s: float = 5e-6,
    switching_delay_s: float = 10e-6,
    trace: TraceRecorder | None = None,
    metrics: MetricsRegistry | None = None,
) -> Cluster:
    """The paper's topology on switches instead of hubs.

    Returns the same :class:`~repro.netsim.topology.Cluster` shape (the
    switches sit in ``cluster.backplanes``), so stacks, DRS, baselines, and
    fault injection work unchanged; component names are ``switch0/1``.
    """
    return _build_dual_cluster(
        sim,
        n,
        trace,
        metrics,
        lambda net, trace, registry: Switch(
            sim, net, bandwidth_bps, prop_delay_s, switching_delay_s, trace, registry
        ),
    )
