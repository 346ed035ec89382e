"""Deeper baseline behaviours: split horizon, LSA ordering, reactive clocks."""

from repro.baselines import (
    DistVectorConfig,
    LinkStateConfig,
    install_distvector,
    install_linkstate,
)
from repro.baselines.distvector import Advertisement, RIP_PORT
from repro.baselines.linkstate import Lsa
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import Simulator

DV_FAST = DistVectorConfig(advertise_interval_s=0.5, timeout_s=1.5)
LS_FAST = LinkStateConfig(hello_interval_s=0.25, dead_interval_s=1.0)


def test_split_horizon_suppresses_back_advertisement():
    """A route learned via network j is not advertised back onto network j."""
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 3)
    stacks = install_stacks(cluster)
    install_distvector(cluster, stacks, DV_FAST)
    adverts = []
    for bp in cluster.backplanes:  # tap each hub: keep the frames bound for the RIP port
        def tapped(frame, sender, _transmit=bp.transmit):
            if getattr(frame.payload.payload, "dst_port", None) == RIP_PORT:
                adverts.append(frame)
            _transmit(frame, sender)
        bp.transmit = tapped
    sim.run(until=3.0)
    # advertisements are on the wire (UDP port 520 broadcasts)
    assert adverts
    # and at the source: node 0's steady-state routes egress network 0 (all
    # direct), so its network-0 advert must carry only its self-entry
    sim2 = Simulator()
    cluster2 = build_dual_backplane_cluster(sim2, 3)
    stacks2 = install_stacks(cluster2)
    deployment2 = install_distvector(cluster2, stacks2, DV_FAST)
    sim2.run(until=3.0)
    router0 = deployment2.routers[0]
    best = router0._best_routes()
    assert best  # converged
    for net in (0, 1):
        advertised = [dst for dst, (m, nh, egress) in best.items() if egress != net]
        for dst, (m, nh, egress) in best.items():
            if egress == net:
                assert dst not in advertised


def test_distvector_count_to_infinity_is_bounded():
    """The authentic RIP pathology, bounded by metric 16.

    When a node dies, its neighbours briefly re-learn it from each other
    through the *other* network (split horizon only suppresses the learning
    interface), and the metric counts up by one per advertisement round
    until INFINITY garbage-collects the route — the convergence cost the
    paper holds against traditional protocols.
    """
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 3)
    stacks = install_stacks(cluster)
    deployment = install_distvector(cluster, stacks, DV_FAST)
    sim.run(until=3.0)
    cluster.faults.fail("nic2.0")
    cluster.faults.fail("nic2.1")  # node 2 fully dark
    # mid-counting: the ghost route exists with a climbing, finite metric
    sim.run(until=sim.now + 4 * DV_FAST.timeout_s)
    ghost = stacks[0].table.lookup(2)
    if ghost is not None and ghost.source.value == "dv":
        assert ghost.metric < 16
    # after enough advertisement rounds the count hits 16 and collects
    # (the metric climbs roughly one per round; give it a generous margin)
    sim.run(until=sim.now + 45 * DV_FAST.advertise_interval_s)
    for src in (0, 1):
        route = stacks[src].table.lookup(2)
        assert route is None or route.source.value == "static", str(route)
    # ... and the live pair's routing was never disturbed
    from tests.drs.conftest import routed_ping_ok

    assert routed_ping_ok(sim, stacks, 0, 1)


def test_lsa_older_sequence_ignored():
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 3)
    stacks = install_stacks(cluster)
    deployment = install_linkstate(cluster, stacks, LS_FAST)
    sim.run(until=2.0)
    router0 = deployment.routers[0]
    current_seq = router0._lsdb[1].lsa.seq
    stale = Lsa(origin=1, seq=current_seq - 1, networks=())
    assert router0._install_lsa(stale) is False
    assert router0._lsdb[1].lsa.seq == current_seq  # untouched


def test_lsa_newer_sequence_replaces_and_updates_routes():
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 3)
    stacks = install_stacks(cluster)
    deployment = install_linkstate(cluster, stacks, LS_FAST)
    sim.run(until=2.0)
    router0 = deployment.routers[0]
    current_seq = router0._lsdb[1].lsa.seq
    # node 1 claims it lost network 0
    newer = Lsa(origin=1, seq=current_seq + 10, networks=(1,))
    assert router0._install_lsa(newer) is True
    route = stacks[0].table.lookup(1)
    assert route.network == 1


def test_reactive_failure_clock_resets_on_success():
    from repro.baselines import ReactiveConfig, install_reactive

    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 3)
    stacks = install_stacks(cluster)
    config = ReactiveConfig(query_interval_s=0.5, timeout_s=2.0, probe_timeout_s=0.01)
    deployment = install_reactive(cluster, stacks, config)
    sim.run(until=1.0)
    # a blip shorter than the timeout quantum must not trigger repair
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 1.0)
    cluster.faults.repair("nic1.0")
    sim.run(until=sim.now + 4.0)
    assert cluster.trace.count("reactive-repair") == 0
    assert 1 not in deployment.routers[0]._failing_since
