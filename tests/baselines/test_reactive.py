"""Tests for the reactive-rerouting baseline."""

import pytest

from repro.baselines import ReactiveConfig, install_reactive
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import RouteSource, install_stacks
from repro.simkit import Simulator

from tests.drs.conftest import routed_ping_ok

FAST = ReactiveConfig(query_interval_s=0.5, timeout_s=1.0, probe_timeout_s=0.01, discovery_timeout_s=0.02)


def _rig(n=5, config=FAST):
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, n)
    stacks = install_stacks(cluster)
    deployment = install_reactive(cluster, stacks, config)
    sim.run(until=2.0)
    return sim, cluster, stacks, deployment


def test_config_validation():
    with pytest.raises(ValueError):
        ReactiveConfig(query_interval_s=0)
    with pytest.raises(ValueError):
        ReactiveConfig(query_interval_s=5.0, timeout_s=1.0)


def test_healthy_cluster_changes_nothing():
    sim, cluster, stacks, deployment = _rig()
    for src in range(5):
        for dst in range(5):
            if src != dst:
                assert stacks[src].table.lookup(dst).source is RouteSource.STATIC


def test_nic_failure_detected_only_after_timeout():
    sim, cluster, stacks, deployment = _rig()
    t_fail = sim.now
    cluster.faults.fail("nic1.0")
    sim.run(until=t_fail + 5.0)
    repairs = [e for e in cluster.trace.entries("reactive-repair") if e.fields["node"] == 0 and e.fields["peer"] == 1]
    assert repairs, "reactive router never repaired"
    # detection cannot be faster than the timeout quantum
    assert repairs[0].time - t_fail >= FAST.timeout_s
    route = stacks[0].table.lookup(1)
    assert route.source is RouteSource.REACTIVE and route.network == 1
    assert routed_ping_ok(sim, stacks, 0, 1)


def test_hub_failure_recovers_cluster_wide():
    sim, cluster, stacks, deployment = _rig()
    cluster.faults.fail("hub0")
    sim.run(until=sim.now + 6.0)
    for src in range(5):
        for dst in range(5):
            if src != dst:
                assert stacks[src].table.lookup(dst).network == 1, (src, dst)
    assert routed_ping_ok(sim, stacks, 2, 4)


def test_crossed_failure_two_hop_repair():
    sim, cluster, stacks, deployment = _rig()
    cluster.faults.fail("nic0.1")
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 8.0)
    route = stacks[0].table.lookup(1)
    assert route is not None and not route.direct
    assert routed_ping_ok(sim, stacks, 0, 1)


def test_no_background_probe_traffic_before_failure():
    # reactive queries are routed pings at query_interval; compare with DRS
    # full-mesh per-network probing: far fewer wire bits
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 5)
    stacks = install_stacks(cluster)
    install_reactive(cluster, stacks, FAST)
    sim.run(until=10.0)
    bits = cluster.backplanes[0].bits_carried.value + cluster.backplanes[1].bits_carried.value
    # 5 nodes * 4 peers / 0.5s interval * ~20s-of-pings: each ping 2*84 bytes
    # over 10s: 5*4*(10/0.5) = 400 pings = 400*2*84*8 bits ~ 0.54 Mb
    assert bits < 1.2e6


def test_stop_and_restart():
    sim, cluster, stacks, deployment = _rig()
    deployment.stop()
    q = sum(r.queries.value for r in deployment.routers.values())
    sim.run(until=sim.now + 3.0)
    assert sum(r.queries.value for r in deployment.routers.values()) == q
    deployment.start()
    sim.run(until=sim.now + 3.0)
    assert sum(r.queries.value for r in deployment.routers.values()) > q


def test_total_repairs_counter():
    sim, cluster, stacks, deployment = _rig()
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 5.0)
    assert sum(int(r.repairs.value) for r in deployment.routers.values()) >= 1
