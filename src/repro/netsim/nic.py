"""Network interface card model."""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping

from repro.netsim.addresses import InterfaceAddr
from repro.netsim.component import Component, ComponentKind
from repro.netsim.frames import Frame
from repro.obs.metrics import MetricsRegistry, resolve_registry
from repro.simkit import Counter, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.netsim.segment import Segment

FrameHandler = Callable[[Frame, "Nic"], None]

#: a card no node holds has no protocol table of its own
_NO_HANDLERS: Mapping[str, FrameHandler] = MappingProxyType({})


class Nic(Component):
    """One failable interface attaching a node to a backplane (hub or switch).

    A down NIC loses traffic in both directions without notifying either
    side — modelling the card/driver/cabling failures the paper's one-year
    field study attributes 13% of hardware faults to.
    """

    def __init__(
        self,
        addr: InterfaceAddr,
        backplane: "Segment",
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name=f"nic{addr.node}.{addr.network}", kind=ComponentKind.NIC)
        self.addr = addr
        self.backplane = backplane
        self.trace = trace
        #: protocol -> handler for arriving frames: the node's own table once it
        #: holds this card (a card no node holds hands frames to no one)
        self._handlers: Mapping[str, FrameHandler] = _NO_HANDLERS
        registry = resolve_registry(metrics)
        # nothing reads sent/received per card: the run's totals are the only count
        self._sent = registry.counter("net_frames_sent_total")
        self._received = registry.counter("net_frames_received_total")
        self.frames_dropped = Counter(f"{self.name}.drops", total=registry.counter("net_frames_dropped_total"))
        backplane.attach(self)

    def use_handlers(self, handlers: dict[str, FrameHandler]) -> None:
        """Hand each arriving frame straight to ``handlers[frame.protocol]``.

        The table is shared, not copied: a node passes its own, so a
        protocol registered later is dispatched too.
        """
        self._handlers = handlers

    # -------------------------------------------------------------- transmit
    def send(self, frame: Frame) -> bool:
        """Hand a frame to the medium.  Returns False if dropped at the NIC.

        The boolean reflects only local knowledge — a True return does not
        mean the frame will arrive (the hub or the receiving NIC may be
        down), matching real transmit semantics.
        """
        if not self.up:
            self._drop(frame, reason="tx-nic-down")
            return False
        self._sent.add()
        self.backplane.transmit(frame, self)
        return True

    # --------------------------------------------------------------- receive
    def deliver(self, frame: Frame) -> None:
        """Called by the backplane when a frame reaches this port."""
        if not self.up:
            self._drop(frame, reason="rx-nic-down")
            return
        self._received.add()
        handler = self._handlers.get(frame.protocol)
        if handler is not None:
            handler(frame, self)
        # a protocol nobody handles is dropped silently, like an unbound ethertype

    def _drop(self, frame: Frame, reason: str) -> None:
        self.frames_dropped.add()
        if self.trace is not None and self.trace.enabled:
            self.trace.record("drop", where=self.name, reason=reason, frame=str(frame))
