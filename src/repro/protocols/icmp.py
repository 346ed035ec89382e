"""ICMP echo: the probe primitive the DRS monitor is built on."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import inf
from typing import Callable, NamedTuple

from repro.netsim.addresses import NetworkId, NodeId
from repro.obs.metrics import current_registry
from repro.obs.spans import span_log
from repro.protocols.ip import NetworkLayer
from repro.protocols.packet import ICMP_HEADER_BYTES, Packet
from repro.simkit import Counter, Simulator, TraceRecorder

_next_echo_id = itertools.count(1).__next__


@dataclass(slots=True)
class EchoRequest:
    """ICMP echo request (type 8).

    ``direct`` marks a link probe: the responder must answer on the physical
    network the request arrived on rather than through its routing table, so
    the transaction tests exactly one link in both directions.
    """

    ident: int
    seq: int
    data_bytes: int = 0
    direct: bool = False

    @property
    def size_bytes(self) -> int:
        """Header plus optional payload padding."""
        return ICMP_HEADER_BYTES + self.data_bytes


@dataclass(slots=True)
class EchoReply:
    """ICMP echo reply (type 0); mirrors the request's ident/seq/data."""

    ident: int
    seq: int
    data_bytes: int = 0

    @property
    def size_bytes(self) -> int:
        """Header plus mirrored payload padding."""
        return ICMP_HEADER_BYTES + self.data_bytes


class PingStatus(enum.Enum):
    """Outcome of one echo transaction."""

    REPLY = "reply"
    TIMEOUT = "timeout"
    SEND_FAILED = "send-failed"


class PingResult(NamedTuple):
    """What a completed ping reports to its callback (immutable; one per ping)."""

    status: PingStatus
    dst_node: NodeId
    network: NetworkId | None
    rtt_s: float | None


class IcmpService:
    """Echo responder plus an async ping client with timeouts.

    Two send paths exist on purpose:

    * :meth:`ping_direct` — one physical network, no routing; this is the
      DRS link check (host A, NIC j → host B, NIC j).
    * :meth:`ping` — routing-table path; used by experiments to measure
      end-to-end reachability exactly as an application would see it.
    """

    PROTOCOL = "icmp"

    def __init__(
        self,
        sim: Simulator,
        net: NetworkLayer,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.net = net
        # Routed pings (path checks, reachability probes) get causal spans;
        # direct link probes stay span-free — the monitor records the losses
        # that matter and the per-probe hot path must stay cheap.
        self._spans = span_log(trace) if trace is not None else None
        # (ident, seq) -> (timeout event, callback, sent_at, network or None,
        #                  dst_node, span or None)
        self._pending: dict[tuple[int, int], tuple] = {}
        self.requests_answered = Counter(f"icmp{net.node.node_id}.answered")
        self.replies_matched = Counter(f"icmp{net.node.node_id}.matched")
        timeouts_total = current_registry().counter("icmp_timeouts_total")
        self.timeouts = Counter(f"icmp{net.node.node_id}.timeouts", total=timeouts_total)
        net.register_protocol(self.PROTOCOL, self._on_packet)

    # ------------------------------------------------------------------ client
    def ping_direct(
        self,
        network: NetworkId,
        dst_node: NodeId,
        timeout_s: float,
        callback: Callable[[PingResult], None],
        data_bytes: int = 0,
    ) -> None:
        """Echo ``dst_node`` over one specific network; no routing involved."""
        self._ping(dst_node, timeout_s, callback, data_bytes, network)

    def ping(
        self,
        dst_node: NodeId,
        timeout_s: float,
        callback: Callable[[PingResult], None],
        data_bytes: int = 0,
    ) -> None:
        """Echo ``dst_node`` along whatever path the routing table provides."""
        self._ping(dst_node, timeout_s, callback, data_bytes, network=None)

    def _ping(self, dst_node, timeout_s, callback, data_bytes, network):
        # checked before anything is sent: NaN fails both comparisons
        if not 0.0 < timeout_s < inf:
            raise ValueError(f"timeout_s must be positive and finite, got {timeout_s}")
        ident = _next_echo_id()
        seq = 1
        request = EchoRequest(ident, seq, data_bytes, network is not None)
        span = None
        if network is None and self._spans is not None and self._spans.wants():
            span = self._spans.begin(
                f"ping node{self.net.node.node_id}->peer{dst_node}",
                "probe",
                node=self.net.node.node_id,
                peer=dst_node,
            )
        if network is None:
            sent = self.net.send(dst_node, self.PROTOCOL, request)
        else:
            sent = self.net.send_direct(network, dst_node, self.PROTOCOL, request)
        if not sent:
            # The local NIC refused (or no route): report immediately but
            # asynchronously, so callers never reenter from inside ping().
            if span is not None:
                self._spans.end(span, outcome="send-failed")
            result = PingResult(PingStatus.SEND_FAILED, dst_node, network, None)
            self.sim.schedule(0.0, lambda: callback(result))
            return
        key = (ident, seq)
        timeout_ev = self.sim.schedule(timeout_s, lambda: self._on_timeout(key))
        self._pending[key] = (timeout_ev, callback, self.sim.now, network, dst_node, span)

    def _on_timeout(self, key: tuple[int, int]) -> None:
        entry = self._pending.pop(key, None)
        if entry is None:
            return
        _, callback, _, network, dst_node, span = entry
        self.timeouts.add()
        if span is not None:
            self._spans.end(span, outcome="timeout")
        callback(PingResult(PingStatus.TIMEOUT, dst_node, network, None))

    # --------------------------------------------------------------- responder
    def _on_packet(self, packet: Packet, arrived_on: NetworkId) -> None:
        msg = packet.payload
        if isinstance(msg, EchoRequest):
            reply = EchoReply(msg.ident, msg.seq, msg.data_bytes)
            if msg.direct:
                # Link probe: answer on the network it arrived on so the
                # transaction tests that physical link in both directions.
                self.net.send_direct(arrived_on, packet.src_node, self.PROTOCOL, reply)
            else:
                # Routed ping: answer through the routing table, like real ICMP.
                self.net.send(packet.src_node, self.PROTOCOL, reply)
            self.requests_answered.add()
        elif isinstance(msg, EchoReply):
            entry = self._pending.pop((msg.ident, msg.seq), None)
            if entry is None:
                return  # late reply after timeout: ignored, like real ping
            timeout_ev, callback, sent_at, network, dst_node, span = entry
            self.sim.cancel(timeout_ev)
            self.replies_matched.add()
            rtt_s = self.sim.now - sent_at
            if span is not None:
                self._spans.end(span, outcome="reply", rtt_s=rtt_s)
            callback(PingResult(PingStatus.REPLY, dst_node, network, rtt_s))
