"""Shared-medium backplane (hub) model.

The paper's clusters attach every server to two hub-based 100 Mb/s segments.
A hub repeats frames to all ports, and the segment behaves as one shared
transmission resource, so the model here is a single FIFO server with the
segment's bit rate: transmissions serialize through the hub; each frame then
propagates to its destination NIC (or, for broadcast, to all attached NICs).

Attachment, bit and drop accounting and utilization are the
:class:`~repro.netsim.segment.Segment` it shares with the switch; this
module adds the shared-medium clock and the random-loss model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.addresses import BROADCAST_NODE, NetworkId
from repro.netsim.frames import Frame
from repro.netsim.segment import Segment
from repro.obs.metrics import MetricsRegistry
from repro.simkit import Simulator, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.netsim.nic import Nic


class Backplane(Segment):
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
        super().__init__(sim, f"hub{network_id}", network_id, bandwidth_bps, prop_delay_s, trace, metrics)
        self._rng = None
        #: per-frame random loss probability (bit errors, collisions, noise);
        #: distinct from hard component failure — a lossy segment is still up
        self.loss_rate = 0.0
        self.set_loss_rate(loss_rate, rng)
        self._medium_free_at = 0.0

    # ------------------------------------------------------------- transport
    def transmit(self, frame: Frame, sender: "Nic") -> None:
        """Serialize ``frame`` through the shared medium and deliver it.

        If the hub is down, the frame is silently lost (the sender cannot
        tell — exactly the failure mode DRS probing exists to detect).
        """
        if not self.up:
            self._drop(frame, reason="hub-down")
            return
        done = self._medium_free_at = self._carry(frame, self._medium_free_at)

        def deliver() -> None:
            # Failure state is evaluated at delivery time: a hub that died
            # while the frame was in flight loses it.
            if not self.up:
                self._drop(frame, reason="hub-died-in-flight")
                return
            if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
                self._drop(frame, reason="random-loss")
                return
            dst_node = frame.dst.node
            if dst_node == BROADCAST_NODE:
                for nic in self._nics.values():
                    if nic is not sender:
                        nic.deliver(frame)
            else:
                nic = self._nics.get(dst_node)
                if nic is None:
                    self._drop(frame, reason="no-such-node")
                else:
                    nic.deliver(frame)

        self.sim.schedule_at(done + self.prop_delay_s, deliver)

    def set_loss_rate(self, loss_rate: float, rng=None) -> None:
        """Change the random frame-loss probability at runtime."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if rng is not None:
            self._rng = rng
        if loss_rate > 0.0 and self._rng is None:
            raise ValueError("a loss_rate needs an rng for loss draws")
        self.loss_rate = float(loss_rate)
