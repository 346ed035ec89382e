"""Unit tests for node frame dispatch."""

import pytest

from repro.netsim import Backplane, InterfaceAddr, Nic, Node
from repro.simkit import Simulator


class _Payload:
    size_bytes = 28


def _two_nodes():
    sim = Simulator()
    bps = [Backplane(sim, 0), Backplane(sim, 1)]
    nodes = []
    for i in range(2):
        node = Node(sim, i)
        for net in (0, 1):
            node.add_nic(Nic(InterfaceAddr(i, net), bps[net]))
        nodes.append(node)
    return sim, bps, nodes


def test_send_frame_and_protocol_dispatch():
    sim, bps, (a, b) = _two_nodes()
    got = []
    b.register_handler("ping", lambda f, nic: got.append((f.protocol, nic.addr.network)))
    assert a.send_frame(0, b.nics[0].addr, "ping", _Payload())
    assert a.send_frame(1, b.nics[1].addr, "ping", _Payload())
    sim.run()
    assert sorted(got) == [("ping", 0), ("ping", 1)]


def test_unregistered_protocol_silently_dropped():
    sim, bps, (a, b) = _two_nodes()
    a.send_frame(0, b.nics[0].addr, "mystery", _Payload())
    sim.run()  # no exception


def test_send_on_missing_network_returns_false():
    sim, bps, (a, b) = _two_nodes()
    assert a.send_frame(7, b.nics[0].addr, "ping", _Payload()) is False


def test_duplicate_handler_rejected():
    sim, bps, (a, b) = _two_nodes()
    a.register_handler("x", lambda f, nic: None)
    with pytest.raises(ValueError):
        a.register_handler("x", lambda f, nic: None)


def test_duplicate_nic_rejected():
    sim = Simulator()
    bp0 = Backplane(sim, 0)
    node = Node(sim, 0)
    node.add_nic(Nic(InterfaceAddr(0, 0), bp0))
    bp0b = Backplane(sim, 0)
    with pytest.raises(ValueError):
        node.add_nic(Nic(InterfaceAddr(0, 0), bp0b))


def test_foreign_nic_rejected():
    sim = Simulator()
    bp = Backplane(sim, 0)
    node = Node(sim, 0)
    with pytest.raises(ValueError):
        node.add_nic(Nic(InterfaceAddr(9, 0), bp))


def test_networks_property():
    sim, bps, (a, _) = _two_nodes()
    assert a.networks == [0, 1]
