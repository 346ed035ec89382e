"""Tests for the BSP ring job."""

import pytest

from repro.cluster import MpiJobConfig, MpiRingJob, install_messaging
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import install_stacks
from repro.simkit import Simulator


def _rig(n=5, **cfg):
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, n)
    stacks = install_stacks(cluster)
    comm = install_messaging(sim, stacks)
    job = MpiRingJob(sim, comm, MpiJobConfig(**{"iterations": 20, "compute_time_s": 0.01, **cfg}))
    return sim, cluster, stacks, job


def test_config_validation():
    with pytest.raises(ValueError):
        MpiJobConfig(iterations=0)
    with pytest.raises(ValueError):
        MpiJobConfig(compute_time_s=-1)
    with pytest.raises(ValueError):
        MpiJobConfig(halo_bytes=-1)


def test_needs_three_ranks():
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 2)
    stacks = install_stacks(cluster)
    comm = install_messaging(sim, stacks)
    with pytest.raises(ValueError):
        MpiRingJob(sim, comm, MpiJobConfig())


def test_job_completes_all_iterations():
    sim, cluster, stacks, job = _rig()
    job.start()
    sim.run(until=60.0)
    assert job.done
    assert job.stats.completed_iterations == 20
    times = job.stats.iteration_times
    assert sum(times) / len(times) > 0.01  # compute + comm


def test_iteration_time_dominated_by_compute_when_healthy():
    sim, cluster, stacks, job = _rig(compute_time_s=0.05)
    job.start()
    sim.run(until=60.0)
    assert job.done
    # communication adds little on an idle 100 Mb/s segment
    assert job.stats.median_iteration_s() < 0.05 * 1.5


def test_failure_inflates_exactly_the_overlapping_iterations():
    from repro.drs import install_drs
    from tests.drs.conftest import FAST

    sim, cluster, stacks, job = _rig(n=5, iterations=40, compute_time_s=0.02)
    install_drs(cluster, stacks, FAST)
    sim.run(until=1.0)  # DRS warmup before the job starts
    job.start()
    sim.schedule(0.4, lambda: cluster.faults.fail("nic2.0"))  # mid-job
    sim.run(until=120.0)
    assert job.done
    times = job.stats.iteration_times
    # at least one iteration carries the outage, but the median stays normal
    assert job.stats.max_iteration_s() > 3 * job.stats.median_iteration_s()
    slow = [t for t in times if t > 3 * job.stats.median_iteration_s()]
    assert 1 <= len(slow) <= 5  # DRS confines the damage to a few iterations


def test_job_stalls_forever_without_routing_repair():
    sim, cluster, stacks, job = _rig(n=5, iterations=40, compute_time_s=0.02)
    job.start()
    sim.schedule(0.5, lambda: cluster.faults.fail("hub0"))
    sim.run(until=120.0)
    assert not job.done  # static routes: the barrier never clears
