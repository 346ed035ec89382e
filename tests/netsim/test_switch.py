"""Tests for the switched-fabric substrate."""

import pytest

from repro.netsim import (
    Frame,
    InterfaceAddr,
    Nic,
    Switch,
    build_dual_backplane_cluster,
    build_dual_switched_cluster,
)
from repro.netsim.addresses import broadcast_addr
from repro.protocols import install_stacks
from repro.simkit import Process, Simulator


class _Payload:
    def __init__(self, size_bytes=28):
        self.size_bytes = size_bytes


def _rig(n=3, **kw):
    sim = Simulator()
    sw = Switch(sim, network_id=0, **kw)
    nics, received = [], []
    for i in range(n):
        nic = Nic(InterfaceAddr(i, 0), sw)
        nic.use_handlers({"t": lambda f, nic, i=i: received.append((sim.now, i, f))})
        nics.append(nic)
    return sim, sw, nics, received


def test_unknown_unicast_floods_then_learns():
    sim, sw, nics, received = _rig()
    nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload()))
    sim.run()
    # flooded, but only the addressed NIC consumed it
    assert [who for _, who, _ in received] == [1]
    assert sw.frames_flooded.value == 1
    assert sw.mac_table == {0: 0}
    # reply: destination 0 is now learned, no flood
    nics[1].send(Frame(nics[1].addr, nics[0].addr, "t", _Payload()))
    sim.run()
    assert sw.frames_flooded.value == 1
    assert sw.mac_table == {0: 0, 1: 1}


def test_store_and_forward_latency():
    sim, sw, nics, received = _rig(switching_delay_s=10e-6, prop_delay_s=5e-6)
    nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload(28)))
    sim.run()
    t = received[0][0]
    tx = 84 * 8 / 100e6
    # ingress serialization + switching + egress serialization + propagation
    assert t == pytest.approx(tx + 10e-6 + tx + 5e-6)


def test_broadcast_reaches_all_but_sender():
    sim, sw, nics, received = _rig(n=4)
    nics[2].send(Frame(nics[2].addr, broadcast_addr(0), "t", _Payload()))
    sim.run()
    assert sorted(who for _, who, _ in received) == [0, 1, 3]


def test_parallel_ports_do_not_contend():
    # two disjoint flows at line rate: on a hub they would serialize, on a
    # switch they complete in parallel
    sim, sw, nics, received = _rig(n=4)
    # teach the switch all ports first
    for nic in nics:
        nic.send(Frame(nic.addr, broadcast_addr(0), "t", _Payload()))
    sim.run()
    received.clear()
    start = sim.now
    big = _Payload(10_000)
    for _ in range(10):
        nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", big))
        nics[2].send(Frame(nics[2].addr, nics[3].addr, "t", big))
    sim.run()
    elapsed = sim.now - start
    one_flow = 10 * (10_038 * 8 / 100e6)
    # both flows finish in roughly one flow's serialization time (+pipeline)
    assert elapsed < one_flow * 1.3
    assert len(received) == 20


def test_disjoint_tcp_flows_scale_with_ports_not_with_the_shared_medium():
    def goodput(build, flows=3, seconds=0.2):
        sim = Simulator()
        stacks = install_stacks(build(sim, 2 * flows))
        delivered = []
        for i in range(flows):
            src, dst = 2 * i, 2 * i + 1
            stacks[dst].tcp.listen(9000, on_message=lambda c, d, size: delivered.append(size))
            conn = stacks[src].tcp.connect(dst, 9000, window_segments=64)

            def pump(conn=conn):
                while True:
                    conn.send_message(data_bytes=100_000)
                    yield 0.01

            Process(sim, pump(), name=f"flow{i}")
        sim.run(until=seconds)
        return sum(delivered)

    # 6.0 MB against 2.1 MB in 0.2 s: the hub caps the sum, the switch each port
    assert goodput(build_dual_switched_cluster) > 1.5 * goodput(build_dual_backplane_cluster)


def test_switch_down_drops():
    sim, sw, nics, received = _rig()
    sw.fail()
    nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload()))
    sim.run()
    assert received == [] and sw.frames_dropped.value == 1


def test_switch_dies_in_flight():
    sim, sw, nics, received = _rig()
    nics[0].send(Frame(nics[0].addr, nics[1].addr, "t", _Payload()))
    sim.schedule(1e-9, sw.fail)
    sim.run()
    assert received == []


def test_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Switch(sim, 0, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Switch(sim, 0, switching_delay_s=-1)
    sw = Switch(sim, 0)
    Nic(InterfaceAddr(0, 0), sw)
    with pytest.raises(ValueError):
        Nic(InterfaceAddr(0, 0), sw)
    with pytest.raises(ValueError):
        build_dual_switched_cluster(sim, 1)


def test_switched_cluster_runs_drs_end_to_end():
    from repro.drs import install_drs
    from tests.drs.conftest import FAST, routed_ping_ok

    sim = Simulator()
    cluster = build_dual_switched_cluster(sim, 5)
    stacks = install_stacks(cluster)
    install_drs(cluster, stacks, FAST)
    sim.run(until=1.0)
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 1.0)
    assert stacks[0].table.lookup(1).network == 1
    assert routed_ping_ok(sim, stacks, 0, 1)
    # switch failure behaves like hub failure (shared component)
    cluster.faults.fail("switch1")
    sim.run(until=sim.now + 2.0)
    # node 1 is now crossed (nic1.0 dead, switch1 dead): two-hop impossible
    # since every path to 1 needs switch1; unreachable, as Equation 1 says
    assert not routed_ping_ok(sim, stacks, 0, 1)


def test_drs_repairs_as_fast_on_switches_as_on_hubs():
    from repro.drs import DrsConfig, install_drs

    def repair_latency(build):
        sim = Simulator()
        cluster = build(sim, 5)
        config = DrsConfig(sweep_period_s=0.2, probe_timeout_s=0.01)
        install_drs(cluster, install_stacks(cluster), config)
        sim.run(until=1.0)
        cluster.faults.fail("nic1.0")
        sim.run(until=2.0)
        return next(
            e.time - 1.0
            for e in cluster.trace.entries("drs-repair")
            if e.time > 1.0 and e.fields["node"] == 0 and e.fields["peer"] == 1
        )

    # same protocol, same timers: within one sweep of each other
    hub = repair_latency(build_dual_backplane_cluster)
    assert abs(hub - repair_latency(build_dual_switched_cluster)) < 0.4


def test_component_universe_names_switches():
    sim = Simulator()
    cluster = build_dual_switched_cluster(sim, 2)
    names = [c.name for c in cluster.faults.components]
    assert names[:2] == ["switch0", "switch1"]
