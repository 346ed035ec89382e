"""TCP-lite: a reliable, ordered message stream with retransmission.

This is the application-transport model the paper's headline claim is stated
against: *"the new route is often found in the time of a TCP retransmit, so
server applications are unaware that a network failure has occurred."*  The
failover experiments open a TCP-lite stream, inject a failure, and compare the
application-visible stall with and without DRS.

Implemented subset (documented simplifications):

* SYN / SYN-ACK connection establishment with retries; no simultaneous open.
* Message-oriented API: each :meth:`TcpConnection.send_message` is chunked
  into MSS-sized segments with per-segment sequence numbers, a sliding
  window, cumulative ACKs, and in-order reassembly on the receiver.
* Jacobson/Karels RTT estimation (SRTT + 4·RTTVAR) with Karn's rule and
  exponential backoff on retransmission; configurable floor/ceiling.
* FIN close handshake; abort after ``max_retries`` consecutive timeouts.
* No flow control beyond the fixed window and no congestion control — the
  cluster segments are short and the experiments never drive them into
  sustained congestion.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.netsim.addresses import NodeId
from repro.protocols.ip import NetworkLayer
from repro.protocols.packet import TCP_HEADER_BYTES, Packet
from repro.simkit import Counter, Simulator

MSS_BYTES = 1460  #: maximum data bytes per segment

#: the conservative RTO a fresh connection starts from (RFC 6298 lower bound
#: as deployed); this is the "time of a TCP retransmit" deadline the paper
#: measures failover against, and the default budget in post-mortem reports.
DEFAULT_INITIAL_RTO_S = 1.0


class TcpFlags(enum.Flag):
    """Segment flag bits (subset)."""

    NONE = 0
    SYN = enum.auto()
    ACK = enum.auto()
    FIN = enum.auto()


@dataclass(slots=True)
class TcpSegment:
    """One TCP-lite segment."""

    src_port: int
    dst_port: int
    flags: TcpFlags
    seq: int
    ack: int
    msg_id: int = -1
    last_chunk: bool = False
    data: Any = None
    data_bytes: int = 0

    @property
    def size_bytes(self) -> int:
        """Header plus carried data size."""
        return TCP_HEADER_BYTES + self.data_bytes

    @property
    def carries_data(self) -> bool:
        """True for segments that occupy sequence space (data or FIN)."""
        return self.data_bytes > 0 or bool(self.flags & TcpFlags.FIN) or bool(self.flags & TcpFlags.SYN)


class TcpState(enum.Enum):
    """Connection lifecycle states (subset of RFC 793)."""

    SYN_SENT = "syn-sent"
    ESTABLISHED = "established"
    FIN_SENT = "fin-sent"
    CLOSED = "closed"
    FAILED = "failed"


_msg_ids = itertools.count(1)


@dataclass
class _TxRecord:
    segment: TcpSegment
    first_sent_at: float
    retransmitted: bool = False


class TcpConnection:
    """One endpoint of a TCP-lite stream.

    Created via :meth:`TcpStack.connect` (active) or handed to the listener's
    ``on_connect`` callback (passive).  Application callbacks:

    * ``on_message(conn, data, data_bytes)`` — a complete message arrived,
    * ``on_established(conn)`` — handshake finished (active side),
    * ``on_close(conn, reason)`` — orderly close or failure (reason
      ``"fin"``, ``"aborted"``, or ``"max-retries"``).
    """

    def __init__(
        self,
        stack: "TcpStack",
        local_port: int,
        remote_node: NodeId,
        remote_port: int,
        active: bool,
        window_segments: int = 8,
        initial_rto_s: float = DEFAULT_INITIAL_RTO_S,
        min_rto_s: float = 0.2,
        max_rto_s: float = 60.0,
        max_retries: int = 8,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.local_port = local_port
        self.remote_node = remote_node
        self.remote_port = remote_port
        self.window_segments = window_segments
        self.max_retries = max_retries

        self.state = TcpState.SYN_SENT if active else TcpState.ESTABLISHED
        self.on_message: Callable[["TcpConnection", Any, int], None] | None = None
        self.on_established: Callable[["TcpConnection"], None] | None = None
        self.on_close: Callable[["TcpConnection", str], None] | None = None

        # --- transmit side
        self._next_seq = 1          # seq 0 is the SYN
        self._send_base = 0 if active else 1
        self._queue: list[TcpSegment] = []
        self._inflight: dict[int, _TxRecord] = {}
        self._retx_timer = None
        self._consecutive_timeouts = 0

        # --- RTO state (Jacobson/Karels)
        self._srtt: float | None = None
        self._rttvar: float | None = None
        self._initial_rto = initial_rto_s
        self._min_rto = min_rto_s
        self._max_rto = max_rto_s
        self._rto = initial_rto_s
        self._backoff = 1.0

        # --- receive side
        self._rcv_next = 1
        self._ooo: dict[int, TcpSegment] = {}
        self._partial: dict[int, list[tuple[Any, int]]] = {}

        # --- fast retransmit (RFC 2581 subset)
        self._dup_acks = 0

        # --- measurement
        self.retransmissions = Counter("tcp.retx")
        self.fast_retransmits = Counter("tcp.fast_retx")
        self.messages_sent = 0
        self.messages_delivered = 0
        self._msg_enqueued_at: dict[int, float] = {}
        self._msg_last_seq: dict[int, int] = {}
        self.message_latencies: dict[int, float] = {}

        if active:
            syn = TcpSegment(local_port, remote_port, TcpFlags.SYN, seq=0, ack=0)
            self._transmit_new(syn)

    # ------------------------------------------------------------------- API
    @property
    def established(self) -> bool:
        """True once the handshake completed and the stream is open."""
        return self.state is TcpState.ESTABLISHED

    @property
    def rto_s(self) -> float:
        """Current retransmission timeout including backoff."""
        return min(self._max_rto, max(self._min_rto, self._rto * self._backoff))

    def send_message(self, data: Any = None, data_bytes: int = 0) -> int:
        """Queue a message for reliable in-order delivery; returns its id.

        The completion latency (enqueue to cumulative ACK of the last chunk)
        lands in :attr:`message_latencies` — the application-visible delivery
        time the failover experiments report.
        """
        if self.state in (TcpState.CLOSED, TcpState.FAILED, TcpState.FIN_SENT):
            raise RuntimeError(f"cannot send on a {self.state.value} connection")
        if data_bytes < 0:
            raise ValueError("data_bytes must be >= 0")
        msg_id = next(_msg_ids)
        self.messages_sent += 1
        self._msg_enqueued_at[msg_id] = self.sim.now
        remaining = data_bytes
        first = True
        while first or remaining > 0:
            chunk = min(MSS_BYTES, remaining) if remaining > 0 else 0
            remaining -= chunk
            last = remaining <= 0
            seg = TcpSegment(
                self.local_port,
                self.remote_port,
                TcpFlags.ACK,
                seq=self._next_seq,
                ack=self._rcv_next,
                msg_id=msg_id,
                last_chunk=last,
                data=data if last else None,
                data_bytes=max(chunk, 1),  # zero-byte messages still occupy seq space
            )
            self._next_seq += 1
            if last:
                self._msg_last_seq[msg_id] = seg.seq
            self._queue.append(seg)
            first = False
        self._pump()
        return msg_id

    def close(self) -> None:
        """Begin an orderly close (FIN after all queued data)."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.SYN_SENT):
            return
        fin = TcpSegment(
            self.local_port, self.remote_port, TcpFlags.FIN | TcpFlags.ACK,
            seq=self._next_seq, ack=self._rcv_next, data_bytes=1,
        )
        self._next_seq += 1
        self._queue.append(fin)
        self.state = TcpState.FIN_SENT
        self._pump()

    def abort(self, reason: str = "aborted") -> None:
        """Tear the connection down immediately."""
        if self.state in (TcpState.CLOSED, TcpState.FAILED):
            return
        self.state = TcpState.FAILED if reason == "max-retries" else TcpState.CLOSED
        self._cancel_timer()
        self._queue.clear()
        self._inflight.clear()
        self.stack._forget(self)
        if self.on_close is not None:
            self.on_close(self, reason)

    # ------------------------------------------------------------- tx engine
    def _pump(self) -> None:
        if self.state is TcpState.SYN_SENT:
            return  # data waits for the handshake
        while self._queue and len(self._inflight) < self.window_segments:
            self._transmit_new(self._queue.pop(0))

    def _transmit_new(self, seg: TcpSegment) -> None:
        self._inflight[seg.seq] = _TxRecord(segment=seg, first_sent_at=self.sim.now)
        self._emit(seg)
        self._arm_timer()

    def _emit(self, seg: TcpSegment) -> None:
        seg.ack = self._rcv_next
        self.stack.net.send(self.remote_node, TcpStack.PROTOCOL, seg)

    def _arm_timer(self) -> None:
        if self._retx_timer is not None or not self._inflight:
            return
        self._retx_timer = self.sim.schedule(self.rto_s, self._on_rto)

    def _cancel_timer(self) -> None:
        if self._retx_timer is not None:
            self.sim.cancel(self._retx_timer)
            self._retx_timer = None

    def _on_rto(self) -> None:
        self._retx_timer = None
        if not self._inflight:
            return
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > self.max_retries:
            self.abort("max-retries")
            return
        oldest = min(self._inflight)
        record = self._inflight[oldest]
        # Karn's rule must cover the whole outstanding window: segments
        # parked behind the hole are not re-emitted, but the time until
        # their eventual cumulative ACK includes this stall and would
        # poison the RTT estimate (observed: SRTT inflated to the RTO
        # ceiling under heavy loss).
        for rec in self._inflight.values():
            rec.retransmitted = True
        self.retransmissions.add()
        self._backoff = min(self._backoff * 2.0, self._max_rto / max(self._rto, 1e-9))
        self._emit(record.segment)
        self._arm_timer()

    def _on_ack(self, ack: int) -> None:
        advanced = False
        for seq in sorted(self._inflight):
            if seq < ack:
                record = self._inflight.pop(seq)
                advanced = True
                if not record.retransmitted:  # Karn's rule
                    self._update_rtt(self.sim.now - record.first_sent_at)
                self._complete_segment(record.segment)
        if advanced:
            self._send_base = ack
            self._consecutive_timeouts = 0
            self._dup_acks = 0
            self._backoff = 1.0
            self._cancel_timer()
            self._arm_timer()
            self._pump()
        elif self._inflight and ack == self._send_base:
            # Duplicate ACK: the receiver has a hole.  Three in a row mean a
            # lost segment rather than reordering -> fast retransmit the
            # oldest unacked segment without waiting for the RTO.
            self._dup_acks += 1
            if self._dup_acks == 3:
                record = self._inflight[min(self._inflight)]
                record.retransmitted = True
                self.fast_retransmits.add()
                self.retransmissions.add()
                self._emit(record.segment)

    def _complete_segment(self, seg: TcpSegment) -> None:
        if seg.flags & TcpFlags.SYN:
            self.state = TcpState.ESTABLISHED
            if self.on_established is not None:
                self.on_established(self)
            self._pump()
            return
        if seg.msg_id >= 0 and self._msg_last_seq.get(seg.msg_id) == seg.seq:
            enqueued = self._msg_enqueued_at.pop(seg.msg_id, None)
            if enqueued is not None:
                self.message_latencies[seg.msg_id] = self.sim.now - enqueued
            del self._msg_last_seq[seg.msg_id]
        if seg.flags & TcpFlags.FIN and self.state is TcpState.FIN_SENT:
            self.state = TcpState.CLOSED
            self.stack._forget(self)
            if self.on_close is not None:
                self.on_close(self, "fin")

    def _update_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = max(self._min_rto, self._srtt + 4.0 * self._rttvar)

    # ------------------------------------------------------------- rx engine
    def _on_segment(self, seg: TcpSegment) -> None:
        if seg.flags & TcpFlags.ACK:
            self._on_ack(seg.ack)
        if seg.flags & TcpFlags.SYN:
            # Retransmitted SYN: our SYN-ACK was lost; acknowledge it again
            # or the client retries until it aborts the handshake.
            self._send_pure_ack()
            return
        if not seg.carries_data:
            return
        if seg.seq < self._rcv_next:
            self._send_pure_ack()  # duplicate: re-ack so the sender advances
            return
        self._ooo[seg.seq] = seg
        while self._rcv_next in self._ooo:
            ready = self._ooo.pop(self._rcv_next)
            self._rcv_next += 1
            self._consume(ready)
        self._send_pure_ack()

    def _consume(self, seg: TcpSegment) -> None:
        if seg.flags & TcpFlags.FIN:
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.CLOSED
                self.stack._forget(self)
                if self.on_close is not None:
                    self.on_close(self, "fin")
            return
        chunks = self._partial.setdefault(seg.msg_id, [])
        chunks.append((seg.data, seg.data_bytes))
        if seg.last_chunk:
            del self._partial[seg.msg_id]
            total = sum(b for _, b in chunks)
            data = chunks[-1][0]
            self.messages_delivered += 1
            if self.on_message is not None:
                self.on_message(self, data, total)

    def _send_pure_ack(self) -> None:
        ack = TcpSegment(self.local_port, self.remote_port, TcpFlags.ACK, seq=0, ack=self._rcv_next)
        self.stack.net.send(self.remote_node, TcpStack.PROTOCOL, ack)


@dataclass
class _Listener:
    on_connect: Callable[[TcpConnection], None] | None = None
    on_message: Callable[[TcpConnection, Any, int], None] | None = None
    connections: list[TcpConnection] = field(default_factory=list)


class TcpStack:
    """Per-host TCP-lite endpoint table."""

    PROTOCOL = "tcp"

    def __init__(self, sim: Simulator, net: NetworkLayer) -> None:
        self.sim = sim
        self.net = net
        self._listeners: dict[int, _Listener] = {}
        self._conns: dict[tuple[int, NodeId, int], TcpConnection] = {}
        self._ephemeral = itertools.count(49152)
        net.register_protocol(self.PROTOCOL, self._on_packet)

    def listen(
        self,
        port: int,
        on_message: Callable[[TcpConnection, Any, int], None] | None = None,
        on_connect: Callable[[TcpConnection], None] | None = None,
    ) -> _Listener:
        """Accept connections on ``port``; wires callbacks onto each one."""
        if port in self._listeners:
            raise ValueError(f"node {self.net.node.node_id}: TCP port {port} already listening")
        listener = _Listener(on_connect=on_connect, on_message=on_message)
        self._listeners[port] = listener
        return listener

    def connect(self, dst_node: NodeId, dst_port: int, **conn_kwargs: Any) -> TcpConnection:
        """Open a connection; data may be queued before it is established."""
        local_port = next(self._ephemeral)
        conn = TcpConnection(self, local_port, dst_node, dst_port, active=True, **conn_kwargs)
        self._conns[(local_port, dst_node, dst_port)] = conn
        return conn

    # -------------------------------------------------------------- plumbing
    def _forget(self, conn: TcpConnection) -> None:
        self._conns.pop((conn.local_port, conn.remote_node, conn.remote_port), None)

    def _on_packet(self, packet: Packet, arrived_on: int) -> None:
        seg: TcpSegment = packet.payload
        key = (seg.dst_port, packet.src_node, seg.src_port)
        conn = self._conns.get(key)
        if conn is None and seg.flags & TcpFlags.SYN:
            listener = self._listeners.get(seg.dst_port)
            if listener is None:
                return  # no RST modelling; the client's SYN retries then abort
            conn = TcpConnection(self, seg.dst_port, packet.src_node, seg.src_port, active=False)
            conn.on_message = listener.on_message
            self._conns[key] = conn
            listener.connections.append(conn)
            if listener.on_connect is not None:
                listener.on_connect(conn)
            conn._send_pure_ack()  # SYN-ACK equivalent: acks seq 0
            return
        if conn is None:
            return  # stray segment for a closed connection
        conn._on_segment(seg)
