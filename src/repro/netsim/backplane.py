"""Shared-medium backplane (hub) model.

The paper's clusters attach every server to two hub-based 100 Mb/s segments.
A hub repeats frames to all ports, and the segment behaves as one shared
transmission resource, so the model here is a single FIFO server with the
segment's bit rate: transmissions serialize through the hub; each frame then
propagates to its destination NIC (or, for broadcast, to all attached NICs).

The backplane accounts every bit it carries, which is what the Figure-1
cross-validation reads back (DRS probe overhead as a fraction of capacity).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.addresses import NetworkId
from repro.netsim.component import Component, ComponentKind
from repro.netsim.frames import Frame
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.simkit import Counter, Simulator, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.netsim.nic import Nic


class Backplane(Component):
    """One shared-medium network segment with finite capacity.

    Parameters
    ----------
    sim:
        The owning simulator.
    network_id:
        Which of the two cluster networks this is (0 or 1).
    bandwidth_bps:
        Segment bit rate; the paper's Figure 1 uses 100 Mb/s.
    prop_delay_s:
        One-way propagation + hub repeat latency applied after serialization.
    trace:
        Optional shared trace recorder for drop/delivery events.
    """

    def __init__(
        self,
        sim: Simulator,
        network_id: NetworkId,
        bandwidth_bps: float = 100e6,
        prop_delay_s: float = 5e-6,
        trace: TraceRecorder | None = None,
        loss_rate: float = 0.0,
        rng=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name=f"hub{network_id}", kind=ComponentKind.HUB)
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be positive, got {bandwidth_bps}")
        if prop_delay_s < 0:
            raise ValueError(f"prop_delay_s must be >= 0, got {prop_delay_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0.0 and rng is None:
            raise ValueError("a loss_rate needs an rng for loss draws")
        self.sim = sim
        self.network_id = network_id
        self.bandwidth_bps = float(bandwidth_bps)
        self.prop_delay_s = float(prop_delay_s)
        self.trace = trace
        #: per-frame random loss probability (bit errors, collisions, noise);
        #: distinct from hard component failure — a lossy segment is still up
        self.loss_rate = float(loss_rate)
        self._rng = rng
        self._nics: dict[int, "Nic"] = {}
        self._medium_free_at = 0.0
        self.bits_carried = Counter(f"hub{network_id}.bits")
        self.frames_carried = Counter(f"hub{network_id}.frames")
        self.frames_dropped = Counter(f"hub{network_id}.drops")
        registry = resolve_registry(metrics)
        self._m_bits = registry.counter("net_bits_carried_total")
        self._m_drops = registry.counter("net_frames_dropped_total")
        self._m_queue_depth = registry.histogram("net_queue_depth_seconds")

    # ------------------------------------------------------------ attachment
    def attach(self, nic: "Nic") -> None:
        """Attach a NIC; its address's node id must be unique on this segment."""
        node = nic.addr.node
        if node in self._nics:
            raise ValueError(f"node {node} already has a NIC on network {self.network_id}")
        if nic.addr.network != self.network_id:
            raise ValueError(f"NIC {nic.addr} does not belong on network {self.network_id}")
        self._nics[node] = nic

    @property
    def attached(self) -> list["Nic"]:
        """All NICs attached to this segment (up or down)."""
        return list(self._nics.values())

    # ------------------------------------------------------------- transport
    def transmit(self, frame: Frame, sender: "Nic") -> None:
        """Serialize ``frame`` through the shared medium and deliver it.

        If the hub is down, the frame is silently lost (the sender cannot
        tell — exactly the failure mode DRS probing exists to detect).
        """
        if not self.up:
            self._drop(frame, reason="hub-down")
            return
        now = self.sim.now
        bits = frame.wire_bits  # walks payload -> packet -> message sizes: once per frame
        tx_time = bits / self.bandwidth_bps
        start = max(now, self._medium_free_at)
        self._m_queue_depth.observe(start - now)
        done = start + tx_time
        self._medium_free_at = done
        self.bits_carried.add(bits)
        self.frames_carried.add()
        self._m_bits.add(bits)
        self.sim.schedule_at(done + self.prop_delay_s, lambda: self._deliver(frame, sender))

    def set_loss_rate(self, loss_rate: float, rng=None) -> None:
        """Change the random frame-loss probability at runtime."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if rng is not None:
            self._rng = rng
        if loss_rate > 0.0 and self._rng is None:
            raise ValueError("a loss_rate needs an rng for loss draws")
        self.loss_rate = float(loss_rate)

    def _deliver(self, frame: Frame, sender: "Nic") -> None:
        # Failure state is evaluated at delivery time: a hub that died while
        # the frame was in flight loses it.
        if not self.up:
            self._drop(frame, reason="hub-died-in-flight")
            return
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self._drop(frame, reason="random-loss")
            return
        if frame.dst.is_broadcast():
            for node, nic in self._nics.items():
                if nic is not sender:
                    nic.deliver(frame)
        else:
            nic = self._nics.get(frame.dst.node)
            if nic is None:
                self._drop(frame, reason="no-such-node")
            else:
                nic.deliver(frame)

    def _drop(self, frame: Frame, reason: str) -> None:
        self.frames_dropped.add()
        self._m_drops.add()
        if self.trace is not None and self.trace.wants("drop"):
            self.trace.record(
                "drop", where=self.name, reason=reason, frame=str(frame), network=self.network_id
            )

    # ------------------------------------------------------------- metering
    def utilization(self) -> float:
        """Mean fraction of capacity used since the start of the simulation.

        For windowed measurements, snapshot :attr:`bits_carried` at the window
        edges and divide the delta by ``bandwidth_bps * window``.
        """
        duration = self.sim.now
        if duration <= 0:
            return 0.0
        return self.bits_carried.value / (self.bandwidth_bps * duration)
