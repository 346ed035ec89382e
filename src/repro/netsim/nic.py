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
        #: degraded-card model: probability each frame (either direction) is
        #: silently lost while the NIC still counts as "up" — the flaky
        #: card/driver/connector gray failures field studies are full of
        self.degraded_drop_rate = 0.0
        self._degraded_rng = None
        self._degraded_direction = "both"
        #: protocol -> handler for arriving frames: the node's own table once
        #: it holds this card.  A card no node holds has a _receiver instead;
        #: a card never has both (see set_receiver / use_handlers)
        self._handlers: Mapping[str, FrameHandler] = _NO_HANDLERS
        self._receiver: FrameHandler | None = None
        registry = resolve_registry(metrics)
        # nothing reads sent/received per card: the run's totals are the only count
        self._sent = registry.counter("net_frames_sent_total")
        self._received = registry.counter("net_frames_received_total")
        self.frames_dropped = Counter(f"{self.name}.drops", total=registry.counter("net_frames_dropped_total"))
        backplane.attach(self)

    def set_receiver(self, receiver: FrameHandler) -> None:
        """Install the handler for every frame arriving on a card no node holds.

        A card a node holds dispatches through the node's table alone, so
        this raises there: register the handler on the node instead.
        """
        if self._handlers is not _NO_HANDLERS:
            raise RuntimeError(f"{self.name} dispatches through its node's handler table; register there")
        self._receiver = receiver

    def use_handlers(self, handlers: dict[str, FrameHandler]) -> None:
        """Hand each arriving frame straight to ``handlers[frame.protocol]``.

        The table is shared, not copied: a node passes its own, so a
        protocol registered later is dispatched too.  Raises if the card
        already has a receiver, which the table would silently bypass.
        """
        if self._receiver is not None:
            raise RuntimeError(f"{self.name} already has a receiver; a node cannot take it over")
        self._handlers = handlers

    def set_degraded(self, drop_rate: float, rng=None, direction: str = "both") -> None:
        """Put the card into (or out of) gray-failure mode.

        ``drop_rate=0`` restores a healthy card.  The NIC stays *up* — its
        failures are probabilistic frame losses, which is exactly the case
        DRS's probe-retry threshold exists to distinguish from hard death.

        ``direction`` selects which side rots: ``"both"`` (default),
        ``"tx"`` (frames leave the driver but die on the wire), or ``"rx"``
        (arrivals lost before the stack sees them).  One-way gray failures
        are the nastiest field case — the node itself appears healthy to
        its own transmissions — and DRS's bidirectional echo catches them.
        """
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        if direction not in ("both", "tx", "rx"):
            raise ValueError(f"direction must be both/tx/rx, got {direction!r}")
        if rng is not None:
            self._degraded_rng = rng
        if drop_rate > 0.0 and self._degraded_rng is None:
            raise ValueError("a degraded NIC needs an rng for loss draws")
        self.degraded_drop_rate = float(drop_rate)
        self._degraded_direction = direction

    def _degraded_loss(self, side: str) -> bool:
        # callers test degraded_drop_rate > 0 first: a healthy card pays no call
        if self._degraded_direction not in ("both", side):
            return False
        return self._degraded_rng.random() < self.degraded_drop_rate

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
        if self.degraded_drop_rate > 0.0 and self._degraded_loss("tx"):
            # A flaky card reports success to its driver, then mangles the
            # frame on the wire — the caller cannot tell.
            self._drop(frame, reason="tx-degraded")
            return True
        self._sent.add()
        self.backplane.transmit(frame, self)
        return True

    # --------------------------------------------------------------- receive
    def deliver(self, frame: Frame) -> None:
        """Called by the backplane when a frame reaches this port."""
        if not self.up:
            self._drop(frame, reason="rx-nic-down")
            return
        if self.degraded_drop_rate > 0.0 and self._degraded_loss("rx"):
            self._drop(frame, reason="rx-degraded")
            return
        self._received.add()
        handler = self._handlers.get(frame.protocol, self._receiver)
        if handler is not None:
            handler(frame, self)
        # a protocol nobody handles is dropped silently, like an unbound ethertype

    def _drop(self, frame: Frame, reason: str) -> None:
        self.frames_dropped.add()
        if self.trace is not None and self.trace.wants("drop"):
            self.trace.record("drop", where=self.name, reason=reason, frame=str(frame))
