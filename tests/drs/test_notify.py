"""Tests for the triggered-update (notify_peers) extension."""

import dataclasses

from repro.drs import DrsConfig, install_drs
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import Simulator

from tests.drs.conftest import FAST, routed_ping_ok

NOTIFY = dataclasses.replace(FAST, notify_peers=True)


def _rig(config, n=6):
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, n)
    stacks = install_stacks(cluster)
    deployment = install_drs(cluster, stacks, config)
    sim.run(until=1.0)
    return sim, cluster, stacks, deployment


def _all_repaired_time(cluster, victim, t_fail, nodes):
    """Latest time any non-victim node repaired its route to the victim."""
    times = {}
    for e in cluster.trace.entries("drs-repair"):
        if e.time > t_fail and e.fields["peer"] == victim and e.fields["node"] != victim:
            times.setdefault(e.fields["node"], e.time)
    expected = {n for n in nodes if n != victim}
    if set(times) != expected:
        return None
    return max(times.values())


def test_notifications_speed_up_cluster_convergence():
    results = {}
    for name, config in (("base", FAST), ("notify", NOTIFY)):
        sim, cluster, stacks, deployment = _rig(config)
        t_fail = sim.now
        cluster.faults.fail("nic2.0")
        sim.run(until=t_fail + 2.0)
        done = _all_repaired_time(cluster, victim=2, t_fail=t_fail, nodes=range(6))
        assert done is not None, f"{name}: not every node repaired"
        results[name] = done - t_fail
    # with notifications, cluster-wide convergence collapses to roughly the
    # first detector's latency; without, stragglers wait out their own sweeps
    assert results["notify"] < 0.8 * results["base"]


def test_notify_repairs_remain_correct():
    sim, cluster, stacks, deployment = _rig(NOTIFY)
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 1.0)
    for src in (0, 2, 3):
        assert stacks[src].table.lookup(1).network == 1
        assert routed_ping_ok(sim, stacks, src, 1)


def test_notification_suppression_no_storm():
    sim, cluster, stacks, deployment = _rig(NOTIFY)
    bits_before = sum(bp.frames_carried.value for bp in cluster.backplanes)
    cluster.faults.fail("hub0")  # worst case: every link on net0 dies at once
    sim.run(until=sim.now + 1.0)
    # count LinkDownNotification control bytes: bounded, not O(n^2) per sweep
    notes = sum(
        1
        for daemon in deployment.routers.values()
        for (peer, net), t in daemon.failover._notified_at.items()
    )
    # suppression allows at most one announcement per (peer, network) per
    # sweep per announcing daemon; the shared suppression via reception
    # keeps the total far below nodes * links
    n = 6
    assert notes <= n * (n - 1)


def test_notify_disabled_ignores_notifications():
    # a mixed cluster: node 0 notifies, others run base config -> they ignore
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 4)
    stacks = install_stacks(cluster)
    from repro.drs.daemon import DrsDaemon

    daemons = {}
    for node in cluster.nodes:
        config = NOTIFY if node.node_id == 0 else FAST
        daemons[node.node_id] = DrsDaemon(sim, stacks[node.node_id], [n.node_id for n in cluster.nodes], config, trace=cluster.trace)
        daemons[node.node_id].start()
    sim.run(until=1.0)
    cluster.faults.fail("nic2.0")
    sim.run(until=sim.now + 2.0)
    # everyone still converges (by their own sweeps), no crash on mixed config
    for src in (0, 1, 3):
        assert stacks[src].table.lookup(2).network == 1
