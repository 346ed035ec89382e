"""Integration tests: DRS detection and repair across failure modes."""

from repro.drs import LinkState
from repro.protocols import RouteSource

from tests.drs.conftest import routed_ping_ok


def test_warmup_marks_all_links_up(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    for daemon in deployment.routers.values():
        assert all(l.state is LinkState.UP for l in daemon.table.links())


def test_peer_nic_failure_swaps_to_second_network(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("nic1.0")  # node 1 loses its primary-network NIC
    sim.run(until=sim.now + 1.0)
    route = stacks[0].table.lookup(1)
    assert route.direct and route.network == 1
    assert route.source is RouteSource.DRS
    assert routed_ping_ok(sim, stacks, 0, 1)
    assert routed_ping_ok(sim, stacks, 1, 0)


def test_own_nic_failure_reroutes_all_peers(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("nic0.0")  # node 0's own primary NIC dies
    sim.run(until=sim.now + 1.0)
    for peer in (1, 2, 3, 4):
        route = stacks[0].table.lookup(peer)
        assert route.direct and route.network == 1
        assert routed_ping_ok(sim, stacks, 0, peer)


def test_hub_failure_moves_cluster_to_second_backplane(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("hub0")
    sim.run(until=sim.now + 1.0)
    for src in range(5):
        for dst in range(5):
            if src == dst:
                continue
            route = stacks[src].table.lookup(dst)
            assert route.network == 1 and route.direct
    assert routed_ping_ok(sim, stacks, 0, 4)


def test_crossed_nic_failures_use_two_hop_route(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    # Node 0 can only transmit on net 0; node 1 only reachable on net 1.
    cluster.faults.fail("nic0.1")
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 2.0)
    route = stacks[0].table.lookup(1)
    assert not route.direct, f"expected two-hop repair, got {route}"
    router = route.next_hop
    assert router not in (0, 1)
    # the volunteer pinned its direct second leg
    leg2 = stacks[router].table.lookup(1)
    assert leg2.direct and leg2.network == 1
    assert routed_ping_ok(sim, stacks, 0, 1)
    assert routed_ping_ok(sim, stacks, 1, 0)


def test_detection_latency_within_configured_bound(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cfg = deployment.config
    start = sim.now
    cluster.faults.fail("nic1.0")
    sim.run(until=start + 2.0)
    repairs = [
        e for e in cluster.trace.entries("drs-repair")
        if e.fields["node"] == 0 and e.fields["peer"] == 1 and e.time >= start
    ]
    assert repairs, "node 0 never repaired its route to node 1"
    # detection+repair must land within one sweep + retry timeouts (+ margin)
    assert repairs[0].time - start <= cfg.detection_bound_s() + 0.05


def test_heal_restores_direct_route(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 1.0)
    assert stacks[0].table.lookup(1).network == 1
    cluster.faults.repair("nic1.0")
    sim.run(until=sim.now + 1.0)
    route = stacks[0].table.lookup(1)
    assert route.direct
    assert routed_ping_ok(sim, stacks, 0, 1)


def test_two_hop_withdrawn_when_direct_heals(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("nic0.1")
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 2.0)
    assert not stacks[0].table.lookup(1).direct
    cluster.faults.repair("nic1.0")
    sim.run(until=sim.now + 2.0)
    route = stacks[0].table.lookup(1)
    assert route.direct, f"healed direct link not restored: {route}"
    assert 1 not in deployment.routers[0].failover.repaired_via


def test_both_hubs_down_peer_unreachable_then_recovers(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("hub0")
    cluster.faults.fail("hub1")
    sim.run(until=sim.now + 3.0)
    assert not routed_ping_ok(sim, stacks, 0, 1)
    cluster.faults.repair("hub1")
    sim.run(until=sim.now + 3.0)
    assert routed_ping_ok(sim, stacks, 0, 1)


def test_router_death_triggers_rediscovery(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("nic0.1")
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 2.0)
    first_router = stacks[0].table.lookup(1).next_hop
    # Kill the volunteer's NIC on our first-leg network: leg1 dies.
    cluster.faults.fail(f"nic{first_router}.0")
    sim.run(until=sim.now + 3.0)
    route = stacks[0].table.lookup(1)
    assert route is not None and not route.direct
    assert route.next_hop != first_router
    assert routed_ping_ok(sim, stacks, 0, 1)


def test_no_ttl_drops_in_steady_state(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    cluster.faults.fail("nic0.1")
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 2.0)
    # exchange routed traffic for a while; two-hop routes must not loop
    for _ in range(5):
        assert routed_ping_ok(sim, stacks, 0, 1)
    assert sum(s.net.dropped_ttl.value for s in stacks.values()) == 0


def test_probe_traffic_stays_within_budget(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    # measure the steady-state probe load over a window
    bp = cluster.backplanes[0]
    start_bits = bp.bits_carried.value
    start_t = sim.now
    sim.run(until=sim.now + 5.0)
    used = (bp.bits_carried.value - start_bits) / (bp.bandwidth_bps * (sim.now - start_t))
    # 5 nodes, sweep 0.1s: per network per sweep = n(n-1) probe exchanges
    expected = 5 * 4 * 2 * 84 * 8 / (0.1 * 100e6)
    assert abs(used - expected) / expected < 0.25


def _probe_bytes(deployment):
    return sum(daemon.monitor.probe_bytes.value for daemon in deployment.routers.values())


def test_stop_halts_probing(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    deployment.stop()
    probes_before = _probe_bytes(deployment)
    sim.run(until=sim.now + 1.0)
    assert _probe_bytes(deployment) == probes_before
    assert not deployment.routers[0].running


def test_restart_after_stop(drs_rig):
    sim, cluster, stacks, deployment = drs_rig
    deployment.stop()
    deployment.start()
    probes_before = _probe_bytes(deployment)
    sim.run(until=sim.now + 1.0)
    assert _probe_bytes(deployment) > probes_before
