"""Tests for the MPI-flavoured messaging layer."""

import pytest

from repro.cluster import install_messaging
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import Simulator


def _rig(n=4):
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, n)
    stacks = install_stacks(cluster)
    comm = install_messaging(sim, stacks)
    return sim, cluster, stacks, comm


def test_send_and_receive_with_tag_and_payload():
    sim, cluster, stacks, comm = _rig()
    got = []
    comm.endpoint(1).on_receive(lambda src, tag, payload, size: got.append((src, tag, payload, size)))
    comm.endpoint(0).send(1, "work", {"k": 1}, size_bytes=512)
    sim.run()
    assert got == [(0, "work", {"k": 1}, 512)]
    assert comm.endpoint(0).sent.value == 1 and comm.endpoint(1).received.value == 1


def test_connection_reused_for_repeat_sends():
    sim, cluster, stacks, comm = _rig()
    for _ in range(5):
        comm.endpoint(0).send(1, "t", None, 10)
    sim.run()
    assert len(comm.endpoint(0)._out) == 1
    assert comm.endpoint(1).received.value == 5


def test_self_send_rejected():
    sim, cluster, stacks, comm = _rig()
    with pytest.raises(ValueError):
        comm.endpoint(0).send(0, "t", None, 0)


def test_broadcast_reaches_everyone_else():
    sim, cluster, stacks, comm = _rig()
    got = []
    for nid in range(4):
        comm.endpoint(nid).on_receive(lambda src, tag, p, s, nid=nid: got.append(nid))
    comm.endpoint(2).broadcast("all", None, 10, peers=list(range(4)))
    sim.run()
    assert sorted(got) == [0, 1, 3]


def test_latency_tracked_after_delivery():
    sim, cluster, stacks, comm = _rig()
    msg = comm.endpoint(0).send(1, "t", None, 100)
    assert comm.endpoint(0).latency_of(1, msg) is None  # not yet delivered
    sim.run()
    latency = comm.endpoint(0).latency_of(1, msg)
    assert latency is not None and latency > 0


def test_latency_of_unknown_peer_is_none():
    sim, cluster, stacks, comm = _rig()
    assert comm.endpoint(0).latency_of(3, 12345) is None


def test_messages_survive_failover_with_drs():
    from repro.drs import install_drs
    from tests.drs.conftest import FAST

    sim, cluster, stacks, comm = _rig(n=5)
    install_drs(cluster, stacks, FAST)
    sim.run(until=1.0)
    got = []
    comm.endpoint(1).on_receive(lambda src, tag, p, s: got.append(tag))
    comm.endpoint(0).send(1, "before", None, 64)
    sim.run(until=2.0)
    cluster.faults.fail("nic1.0")
    sim.run(until=3.0)
    comm.endpoint(0).send(1, "after", None, 64)
    sim.run(until=10.0)
    assert got == ["before", "after"]
