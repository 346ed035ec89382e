"""Unit tests for fault injection and the component universe."""

import numpy as np
import pytest

from repro.netsim import (
    FaultInjector,
    FaultScenario,
    build_dual_backplane_cluster,
    component_universe,
)
from repro.netsim.component import Component, ComponentKind
from repro.simkit import Simulator, TraceRecorder


def _cluster(n=4):
    sim = Simulator()
    return sim, build_dual_backplane_cluster(sim, n)


def test_component_universe_ordering_matches_analytic_model():
    sim, cluster = _cluster(n=3)
    comps = component_universe(cluster)
    assert [c.name for c in comps] == [
        "hub0", "hub1",
        "nic0.0", "nic0.1",
        "nic1.0", "nic1.1",
        "nic2.0", "nic2.1",
    ]
    assert len(comps) == 2 * 3 + 2


def test_fail_and_repair_by_name():
    sim, cluster = _cluster()
    fi = cluster.faults
    fi.fail("nic2.1")
    assert not cluster.nodes[2].nics[1].up
    assert [c.name for c in fi.components if not c.up] == ["nic2.1"]
    fi.repair("nic2.1")
    assert all(c.up for c in fi.components)


def test_unknown_component_raises():
    sim, cluster = _cluster()
    with pytest.raises(KeyError):
        cluster.faults.fail("nic99.0")


def test_fail_is_idempotent_and_traced_once():
    sim, cluster = _cluster()
    cluster.faults.fail("hub0")
    cluster.faults.fail("hub0")
    assert cluster.trace.count("fault") == 1
    assert cluster.backplanes[0].fail_count == 1


def test_scripted_scenario_runs_in_order():
    sim, cluster = _cluster()
    scenario = FaultScenario().fail(1.0, "hub0").repair(3.0, "hub0").fail(5.0, "nic0.0")
    cluster.faults.schedule(scenario)
    sim.run(until=2.0)
    assert not cluster.backplanes[0].up
    sim.run(until=4.0)
    assert cluster.backplanes[0].up
    sim.run(until=6.0)
    assert not cluster.nodes[0].nics[0].up


def test_apply_exact_failures_fails_exactly_f_distinct():
    sim, cluster = _cluster(n=10)
    rng = np.random.default_rng(42)
    chosen = cluster.faults.apply_exact_failures(5, rng)
    assert len(chosen) == 5
    assert len({c.name for c in chosen}) == 5
    assert sum(not c.up for c in cluster.faults.components) == 5


def test_apply_exact_failures_bounds():
    sim, cluster = _cluster(n=3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        cluster.faults.apply_exact_failures(9, rng)  # only 8 components
    with pytest.raises(ValueError):
        cluster.faults.apply_exact_failures(-1, rng)


def test_apply_exact_failures_uniform_coverage():
    # every component should be hit sometimes across many draws
    sim, cluster = _cluster(n=4)
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(300):
        cluster.faults.repair_all()
        for c in cluster.faults.apply_exact_failures(2, rng):
            seen.add(c.name)
    assert seen == {c.name for c in cluster.faults.components}


def test_repair_all():
    sim, cluster = _cluster()
    rng = np.random.default_rng(1)
    cluster.faults.apply_exact_failures(4, rng)
    cluster.faults.repair_all()
    assert all(c.up for c in cluster.faults.components)


def test_random_lifetime_faults_toggle_components():
    sim, cluster = _cluster(n=3)
    rng = np.random.default_rng(3)
    cluster.faults.start_random_faults(rng, mtbf_s=10.0, mttr_s=2.0)
    sim.run(until=200.0)
    fails = sum(c.fail_count for c in cluster.faults.components)
    repairs = sum(c.repair_count for c in cluster.faults.components)
    assert fails > 0 and repairs > 0
    cluster.faults.stop_random_faults()
    pending_before = sim.pending
    sim.run(until=201.0)
    assert sim.pending <= pending_before  # lifecycles no longer rescheduling


def test_random_faults_validation():
    sim, cluster = _cluster()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        cluster.faults.start_random_faults(rng, mtbf_s=0, mttr_s=1)


def test_duplicate_component_names_rejected():
    sim = Simulator()
    comps = [Component("x", ComponentKind.NIC), Component("x", ComponentKind.NIC)]
    with pytest.raises(ValueError):
        FaultInjector(sim, comps)


def test_cluster_builder_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_dual_backplane_cluster(sim, 1)


def test_cluster_accessors():
    sim, cluster = _cluster(n=5)
    assert cluster.n == 5
    assert cluster.node(3).node_id == 3
