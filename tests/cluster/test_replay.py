"""Tests for replaying the fleet failure log on the simulator."""

import numpy as np
import pytest

from repro.cluster import (
    FailureEvent,
    FailureLogConfig,
    generate_failure_log,
    to_fault_scenario,
)
from repro.drs import install_drs
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import Simulator

from tests.drs.conftest import FAST


def test_scenario_contains_only_network_events():
    events = [
        FailureEvent(time_days=1.0, server=0, category="disk"),
        FailureEvent(time_days=2.0, server=1, category="nic"),
        FailureEvent(time_days=3.0, server=0, category="hub"),
    ]
    scenario = to_fault_scenario(events, cluster_nodes=4)
    # one fail+repair pair per network event
    assert len(scenario.events) == 4
    components = {e.component_name for e in scenario.events}
    assert components <= {"nic1.0", "nic1.1", "hub0", "hub1"}


def test_nic_events_alternate_networks():
    events = [
        FailureEvent(time_days=float(i), server=2, category="nic") for i in range(1, 4)
    ]
    scenario = to_fault_scenario(events, cluster_nodes=4)
    failed = [e.component_name for e in scenario.events if e.action.value == "fail"]
    assert failed == ["nic2.0", "nic2.1", "nic2.0"]


def test_out_of_cluster_servers_skipped():
    events = [FailureEvent(time_days=1.0, server=50, category="nic")]
    assert to_fault_scenario(events, cluster_nodes=4).events == []


def test_repair_follows_mttr_and_timescale():
    events = [FailureEvent(time_days=10.0, server=0, category="nic")]
    scenario = to_fault_scenario(events, cluster_nodes=4, mttr_days=2.0, time_scale=3.0)
    fail, repair = scenario.events
    assert fail.time == pytest.approx(30.0)
    assert repair.time == pytest.approx(36.0)


def test_validation():
    with pytest.raises(ValueError):
        to_fault_scenario([], cluster_nodes=1)
    with pytest.raises(ValueError):
        to_fault_scenario([], cluster_nodes=4, mttr_days=0)


def test_fleet_year_replay_on_des_with_drs():
    # generate a fleet-year, replay its network faults on a DRS cluster,
    # check the protocol repaired around every one it could
    rng = np.random.default_rng(8)
    events = generate_failure_log(FailureLogConfig(servers=8, duration_days=365.0, failures_per_server_year=8.0), rng)
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 8)
    stacks = install_stacks(cluster)
    deployment = install_drs(cluster, stacks, FAST)
    # one sim-second per day; day-long MTTR so outages outlast detection
    scenario = to_fault_scenario(events, cluster_nodes=8, mttr_days=1.0, time_scale=1.0)
    cluster.faults.schedule(scenario)
    horizon = max(e.time for e in scenario.events) + 2.0
    sim.run(until=horizon)
    injected_fails = sum(1 for e in scenario.events if e.action.value == "fail")
    assert injected_fails > 0
    assert sum(daemon.failover.repairs.value for daemon in deployment.routers.values()) > 0
    # after the last repair the cluster must be whole again
    assert all(c.up for c in cluster.faults.components)
    for daemon in deployment.routers.values():
        assert not daemon.failover.unreachable
