"""What a hub and a switch have in common: one failable network segment.

Either fabric is one shared component whose death severs every NIC on it,
attaches at most one NIC per node, accounts every bit it carries (the
Figure-1 cross-validation reads that back as probe overhead) and every
frame it loses, and reports how long each frame waited for the resource it
entered through.  :class:`Segment` owns all of that, counted once: its
per-segment counters are built on the run's registry totals, so a fabric
cannot publish less than another.  Subclasses add only how frames move.
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


class Segment(Component):
    """One network segment of finite bit rate that NICs attach to.

    Subclasses implement ``transmit(frame, sender)``, the one call a
    :class:`~repro.netsim.nic.Nic` makes.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network_id: NetworkId,
        bandwidth_bps: float,
        prop_delay_s: float,
        trace: TraceRecorder | None,
        metrics: MetricsRegistry | None,
    ) -> None:
        super().__init__(name=name, kind=ComponentKind.HUB)
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be positive, got {bandwidth_bps}")
        if prop_delay_s < 0:
            raise ValueError(f"prop_delay_s must be >= 0, got {prop_delay_s}")
        self.sim = sim
        self.network_id = network_id
        self.bandwidth_bps = float(bandwidth_bps)
        self.prop_delay_s = float(prop_delay_s)
        self.trace = trace
        self._nics: dict[int, "Nic"] = {}
        registry = resolve_registry(metrics)
        self.bits_carried = Counter(f"{name}.bits", total=registry.counter("net_bits_carried_total"))
        self.frames_carried = Counter(f"{name}.frames")
        self.frames_dropped = Counter(f"{name}.drops", total=registry.counter("net_frames_dropped_total"))
        self._queue_wait = registry.histogram("net_queue_depth_seconds")

    # ------------------------------------------------------------ attachment
    def attach(self, nic: "Nic") -> None:
        """Attach a NIC; its address's node id must be unique on this segment."""
        node = nic.addr.node
        if node in self._nics:
            raise ValueError(f"node {node} already has a NIC on network {self.network_id}")
        if nic.addr.network != self.network_id:
            raise ValueError(f"NIC {nic.addr} does not belong on network {self.network_id}")
        self._nics[node] = nic

    # ------------------------------------------------------------- accounting
    def _carry(self, frame: Frame, free_at: float) -> float:
        """Account ``frame`` entering through a resource busy until ``free_at``.

        The resource is the shared medium of a hub or the sender's ingress
        port of a switch.  Returns when the frame's last bit is through it.
        """
        now = self.sim.now
        bits = frame.wire_bits  # worked out once, when the frame was built
        start = max(now, free_at)
        self._queue_wait.observe(start - now)
        self.bits_carried.add(bits)
        self.frames_carried.add()
        return start + bits / self.bandwidth_bps

    def _drop(self, frame: Frame, reason: str) -> None:
        self.frames_dropped.add()
        if self.trace is not None and self.trace.enabled:
            self.trace.record(
                "drop", where=self.name, reason=reason, frame=str(frame), network=self.network_id
            )

    def utilization(self) -> float:
        """Mean fraction of *one link's* capacity used since the start of the simulation.

        On a hub that is the shared medium's utilization.  On a switch, whose
        ports carry in parallel, it reads as "how much of one shared pipe
        this traffic would have needed".  For windowed measurements, snapshot
        :attr:`bits_carried` at the window edges and divide the delta by
        ``bandwidth_bps * window``.
        """
        duration = self.sim.now
        if duration <= 0:
            return 0.0
        return self.bits_carried.value / (self.bandwidth_bps * duration)
