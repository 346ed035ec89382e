"""Layer-2 frames and wire-size accounting.

Wire occupancy uses minimal-Ethernet framing:

* 18 bytes of header+FCS on top of the L3 payload,
* padding up to the 64-byte minimum frame,
* 20 bytes of preamble + inter-frame gap.

An empty-payload ICMP echo (20 B IP + 8 B ICMP = 28 B of L3) therefore costs
``max(64, 28+18) + 20 = 84`` bytes on the wire per direction — the constant
DESIGN.md §2 calibrates Figure 1 against.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.netsim.addresses import InterfaceAddr

ETHER_OVERHEAD_BYTES = 18   #: MAC header (14) + FCS (4)
MIN_FRAME_BYTES = 64        #: minimum Ethernet frame, padded if shorter
PREAMBLE_IFG_BYTES = 20     #: preamble + start delimiter (8) + inter-frame gap (12)

#: draws the next frame id; a frame takes one only once its size is known
_next_frame_id = itertools.count().__next__


def wire_bytes(payload_bytes: int) -> int:
    """Bytes of medium time one frame with an L3 payload of this size occupies."""
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
    return max(MIN_FRAME_BYTES, payload_bytes + ETHER_OVERHEAD_BYTES) + PREAMBLE_IFG_BYTES


class Frame:
    """A layer-2 frame in flight on one backplane.

    ``payload`` is an arbitrary L3 object exposing ``size_bytes`` (the
    protocol stack's :class:`~repro.protocols.packet.Packet`); ``protocol``
    is the ethertype-like demux key the receiving node dispatches on.

    The size is read once, here: ``payload_bytes`` and ``wire_bits`` are
    plain attributes both fabrics read, and a payload without a size is
    refused with :class:`TypeError` before the frame takes an id.
    """

    __slots__ = ("src", "dst", "protocol", "payload", "payload_bytes", "wire_bits", "frame_id")

    def __init__(self, src: InterfaceAddr, dst: InterfaceAddr, protocol: str, payload: Any) -> None:
        try:
            size = int(payload.size_bytes)
        except AttributeError:
            raise TypeError(f"frame payload {payload!r} lacks a size_bytes attribute") from None
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.payload_bytes = size
        self.wire_bits = wire_bytes(size) * 8
        self.frame_id = _next_frame_id()

    @property
    def wire_bytes(self) -> int:
        """Total wire occupancy of this frame including framing overhead."""
        return self.wire_bits // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self}>"

    def __str__(self) -> str:
        return f"Frame#{self.frame_id}[{self.src}->{self.dst} {self.protocol} {self.payload_bytes}B]"
