"""Unit tests for the UDP service."""

import pytest


def test_send_and_port_dispatch(rig):
    sim, cluster, stacks = rig
    got = []
    stacks[1].udp.bind(53, lambda d, src, net: got.append((d.data, src, net)))
    stacks[0].udp.send(1, 53, data={"q": "hello"}, data_bytes=16)
    sim.run()
    assert got == [({"q": "hello"}, 0, 0)]


def test_unbound_port_drops_and_counts(rig):
    sim, cluster, stacks = rig
    stacks[0].udp.send(1, 9999, data_bytes=4)
    sim.run()
    assert stacks[1].udp.dropped_no_port.value == 1
    assert stacks[1].udp.delivered.value == 0


def test_double_bind_rejected(rig):
    sim, cluster, stacks = rig
    stacks[0].udp.bind(7, lambda d, s, n: None)
    with pytest.raises(ValueError):
        stacks[0].udp.bind(7, lambda d, s, n: None)


def test_send_direct_on_secondary_network(rig):
    sim, cluster, stacks = rig
    got = []
    stacks[1].udp.bind(5, lambda d, src, net: got.append(net))
    cluster.faults.fail("hub0")
    stacks[0].udp.send_direct(1, 1, 5, data_bytes=4)
    sim.run()
    assert got == [1]


def test_broadcast_reaches_peers(rig):
    sim, cluster, stacks = rig
    got = []
    for nid, stack in stacks.items():
        stack.udp.bind(99, lambda d, src, net, nid=nid: got.append((nid, src)))
    stacks[2].udp.broadcast(0, 99, data_bytes=8)
    sim.run()
    assert sorted(got) == [(0, 2), (1, 2), (3, 2)]


def test_datagram_size_includes_header(rig):
    from repro.protocols import Datagram

    d = Datagram(src_port=1, dst_port=2, data_bytes=100)
    assert d.size_bytes == 108


def test_send_failure_when_no_route(rig):
    from repro.protocols import RouteSource

    sim, cluster, stacks = rig
    stacks[0].table.withdraw(1, RouteSource.STATIC)
    assert stacks[0].udp.send(1, 5, data_bytes=1) is False
    assert stacks[0].udp.sent.value == 0
