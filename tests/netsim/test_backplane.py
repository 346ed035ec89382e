"""Unit tests for the shared-medium backplane."""

import pytest

from repro.netsim import Backplane, Frame, InterfaceAddr, Nic
from repro.netsim.addresses import broadcast_addr
from repro.simkit import Simulator, TraceRecorder


class _Payload:
    def __init__(self, size_bytes=28):
        self.size_bytes = size_bytes


def _rig(n=2, bandwidth=100e6, prop=5e-6):
    sim = Simulator()
    trace = TraceRecorder(sim)
    bp = Backplane(sim, network_id=0, bandwidth_bps=bandwidth, prop_delay_s=prop, trace=trace)
    nics, received = [], []
    for i in range(n):
        nic = Nic(InterfaceAddr(i, 0), bp, trace=trace)
        nic.use_handlers({"t": lambda f, nic, i=i: received.append((sim.now, i, f))})
        nics.append(nic)
    return sim, bp, nics, received, trace


def test_unicast_delivery_latency():
    sim, bp, nics, received, _ = _rig()
    frame = Frame(nics[0].addr, nics[1].addr, "t", _Payload(28))
    nics[0].send(frame)
    sim.run()
    (t, who, f) = received[0]
    # 84 bytes * 8 / 100e6 + 5e-6 propagation
    assert t == pytest.approx(84 * 8 / 100e6 + 5e-6)
    assert who == 1 and f is frame


def test_serialization_queues_back_to_back_frames():
    sim, bp, nics, received, _ = _rig()
    for _ in range(3):
        nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload(28)))
    sim.run()
    tx = 84 * 8 / 100e6
    times = [t for t, _, _ in received]
    assert times == pytest.approx([tx + 5e-6, 2 * tx + 5e-6, 3 * tx + 5e-6])


def test_broadcast_reaches_all_but_sender():
    sim, bp, nics, received, _ = _rig(n=4)
    nics[0].send(Frame(nics[0].addr, broadcast_addr(0), "t", _Payload()))
    sim.run()
    assert sorted(who for _, who, _ in received) == [1, 2, 3]


def test_hub_down_drops_at_transmit():
    sim, bp, nics, received, trace = _rig()
    bp.fail()
    assert nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload())) is True
    sim.run()
    assert received == []
    assert bp.frames_dropped.value == 1
    assert trace.last("drop").fields["reason"] == "hub-down"


def test_hub_dies_in_flight_drops():
    sim, bp, nics, received, trace = _rig()
    nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload()))
    sim.schedule(1e-9, bp.fail)  # fail while the frame is serializing
    sim.run()
    assert received == []
    assert trace.last("drop").fields["reason"] == "hub-died-in-flight"


def test_unknown_destination_dropped():
    sim, bp, nics, received, trace = _rig()
    nics[0].send(Frame(nics[0].addr, InterfaceAddr(99, 0), "t", _Payload()))
    sim.run()
    assert received == []
    assert trace.last("drop").fields["reason"] == "no-such-node"


def test_down_rx_nic_drops():
    sim, bp, nics, received, trace = _rig()
    nics[1].fail()
    nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload()))
    sim.run()
    assert received == []
    assert nics[1].frames_dropped.value == 1
    assert trace.last("drop").fields["reason"] == "rx-nic-down"


def test_down_tx_nic_refuses():
    sim, bp, nics, received, _ = _rig()
    nics[0].fail()
    assert nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload())) is False
    sim.run()
    assert received == [] and bp.frames_carried.value == 0


def test_bits_accounting_and_utilization():
    sim, bp, nics, received, _ = _rig()
    for _ in range(10):
        nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload(28)))
    sim.run(until=1.0)
    assert bp.bits_carried.value == 10 * 84 * 8
    assert bp.utilization() == pytest.approx(10 * 84 * 8 / 100e6)


def test_duplicate_node_attachment_rejected():
    sim, bp, nics, _, _ = _rig()
    with pytest.raises(ValueError):
        Nic(InterfaceAddr(0, 0), bp)


def test_wrong_network_attachment_rejected():
    sim, bp, *_ = _rig()
    with pytest.raises(ValueError):
        Nic(InterfaceAddr(5, 1), bp)


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Backplane(sim, 0, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Backplane(sim, 0, prop_delay_s=-1)


def test_utilization_zero_at_time_zero():
    sim = Simulator()
    bp = Backplane(sim, 0)
    assert bp.utilization() == 0.0
