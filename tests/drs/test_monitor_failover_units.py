"""Unit-level tests for monitor internals and failover edge paths."""

import pytest

from repro.drs import LinkState, install_drs
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import Simulator

from tests.drs.conftest import FAST, routed_ping_ok


def _rig(n=5):
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, n)
    stacks = install_stacks(cluster)
    deployment = install_drs(cluster, stacks, FAST)
    sim.run(until=1.0)
    return sim, cluster, stacks, deployment


def test_monitor_start_twice_raises():
    sim, cluster, stacks, deployment = _rig()
    with pytest.raises(RuntimeError):
        deployment.routers[0].monitor.start()


def test_daemon_start_is_idempotent_after_stop():
    sim, cluster, stacks, deployment = _rig()
    daemon = deployment.routers[0]
    daemon.stop()
    assert not daemon.running
    daemon.start()
    assert daemon.running
    sim.run(until=sim.now + 0.5)
    assert daemon.monitor.probes_sent.value > 0


def test_immediate_recheck_confirms_up_link():
    sim, cluster, stacks, deployment = _rig()
    results = []
    deployment.routers[0].monitor.immediate_recheck(1, 0, results.append)
    sim.run(until=sim.now + 0.1)
    assert results == [True]
    assert deployment.routers[0].table.is_up(1, 0)


def test_immediate_recheck_detects_down_link_at_threshold_one():
    sim, cluster, stacks, deployment = _rig()
    cluster.faults.fail("nic1.0")
    # stop the periodic monitor so only the recheck observes the failure
    deployment.routers[0].monitor.stop()
    results = []
    deployment.routers[0].monitor.immediate_recheck(1, 0, results.append)
    sim.run(until=sim.now + 0.1)
    assert results == [False]
    assert deployment.routers[0].table.link(1, 0).state is LinkState.DOWN


def test_path_check_catches_silent_blackhole():
    sim, cluster, stacks, deployment = _rig()
    # force a two-hop repair 0 -> 1
    cluster.faults.fail("nic0.1")
    cluster.faults.fail("nic1.0")
    sim.run(until=sim.now + 2.0)
    engine = deployment.routers[0].failover
    assert 1 in engine.repaired_via
    router = engine.repaired_via[1]
    # sabotage: silently remove the volunteer's pinned leg and freeze its
    # daemon, so only the origin's path checker can notice the black hole
    deployment.routers[router].stop()
    from repro.protocols import RouteSource

    stacks[router].table.withdraw(1, RouteSource.DRS)
    stacks[router].table.withdraw(1, RouteSource.STATIC)
    sim.run(until=sim.now + 3 * FAST.path_check_period_s + 1.0)
    assert cluster.trace.count("drs-path-check-failed") >= 1
    # rediscovery restored connectivity (possibly re-pinning the same
    # volunteer's leg via a fresh RouteInstallRequest)
    assert stacks[0].table.lookup(1) is not None
    assert routed_ping_ok(sim, stacks, 0, 1)


def test_probe_bytes_accounting_matches_probe_count():
    sim, cluster, stacks, deployment = _rig()
    daemon = deployment.routers[0]
    assert daemon.monitor.probe_bytes.value == 84 * daemon.monitor.probes_sent.value


def test_detect_trace_has_network_field():
    sim, cluster, stacks, deployment = _rig()
    cluster.faults.fail("nic2.0")  # primary network: breaks active routes
    sim.run(until=sim.now + 1.0)
    detects = cluster.trace.entries("drs-detect")
    assert detects
    assert all(e.fields["network"] == 0 for e in detects)


def test_secondary_network_failure_needs_no_repair():
    # a DOWN link on the idle second network updates state but must not
    # generate detect/repair traffic (the active route is unaffected)
    sim, cluster, stacks, deployment = _rig()
    before = cluster.trace.count("drs-repair")
    cluster.faults.fail("nic2.1")
    sim.run(until=sim.now + 1.0)
    assert deployment.routers[0].table.link(2, 1).state.value == "down"
    assert cluster.trace.count("drs-detect") == 0
    assert cluster.trace.count("drs-repair") == before
    # the active route is untouched and still works
    assert stacks[0].table.lookup(2).network == 0
    assert routed_ping_ok(sim, stacks, 0, 2)
