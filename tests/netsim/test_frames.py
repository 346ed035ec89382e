"""Unit tests for frames and wire sizing."""

import pytest

from repro.netsim import Frame, InterfaceAddr, wire_bytes
from repro.netsim.addresses import broadcast_addr


class _Payload:
    def __init__(self, size_bytes):
        self.size_bytes = size_bytes


def test_minimum_frame_padding():
    # tiny payloads pad to the 64-byte minimum + 20 bytes preamble/IFG
    assert wire_bytes(0) == 84
    assert wire_bytes(46) == 84


def test_icmp_echo_is_84_wire_bytes():
    # 20B IP + 8B ICMP = 28B payload -> the Figure-1 calibration constant
    assert wire_bytes(28) == 84


def test_large_frame_no_padding():
    assert wire_bytes(1000) == 1000 + 18 + 20


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        wire_bytes(-1)


def test_frame_sizes_follow_payload():
    f = Frame(
        src=InterfaceAddr(0, 0),
        dst=InterfaceAddr(1, 0),
        protocol="test",
        payload=_Payload(28),
    )
    assert f.payload_bytes == 28
    assert f.wire_bytes == 84
    assert f.wire_bits == 672


def test_frame_payload_without_size_raises():
    # refused where the size is read: when the frame is built
    with pytest.raises(TypeError):
        Frame(src=InterfaceAddr(0, 0), dst=InterfaceAddr(1, 0), protocol="t", payload=object())


def test_frame_ids_unique():
    a = Frame(InterfaceAddr(0, 0), InterfaceAddr(1, 0), "t", _Payload(1))
    b = Frame(InterfaceAddr(0, 0), InterfaceAddr(1, 0), "t", _Payload(1))
    assert a.frame_id != b.frame_id


def test_broadcast_addr():
    addr = broadcast_addr(1)
    assert addr.is_broadcast() and addr.network == 1
    assert not InterfaceAddr(3, 1).is_broadcast()
    assert str(addr) == "net1.*"
    assert str(InterfaceAddr(3, 0)) == "net0.3"
