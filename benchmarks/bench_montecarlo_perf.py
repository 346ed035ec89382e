"""Performance bench — throughput of the vectorized Monte Carlo hot path.

Not a paper artifact: guards the optimization the HPC guides call for (the
estimator must stay vectorized; a Python-loop regression would show up here
as an order-of-magnitude slowdown).
"""

import numpy as np

from repro.analysis import sample_failure_matrix, simulate_success_probability
from repro.analysis.montecarlo import pair_connected_vec


def test_sampling_throughput(benchmark):
    rng = np.random.default_rng(0)
    failed = benchmark(lambda: sample_failure_matrix(63, 10, 50_000, rng))
    assert failed.shape == (50_000, 128)


def test_predicate_throughput(benchmark):
    rng = np.random.default_rng(1)
    failed = sample_failure_matrix(63, 10, 100_000, rng)
    ok = benchmark(lambda: pair_connected_vec(failed))
    assert ok.shape == (100_000,)


def test_end_to_end_estimate_throughput(benchmark):
    rng = np.random.default_rng(2)
    estimate = benchmark.pedantic(
        lambda: simulate_success_probability(63, 5, 500_000, rng),
        rounds=5,
        iterations=1,
        warmup_rounds=0,
    )
    assert 0.97 < estimate <= 1.0


def test_des_event_throughput(benchmark):
    """DES kernel throughput: a probe-heavy DRS cluster second."""
    from repro.drs import DrsConfig, install_drs
    from repro.netsim import build_dual_backplane_cluster
    from repro.protocols import install_stacks
    from repro.simkit import Simulator

    def one_second():
        sim = Simulator()
        cluster = build_dual_backplane_cluster(sim, 10)
        cluster.trace.enabled = False
        stacks = install_stacks(cluster)
        install_drs(cluster, stacks, DrsConfig(sweep_period_s=0.1, probe_timeout_s=0.01))
        sim.run(until=1.0)
        return cluster

    # ~0.05 s a round: seven of them (one more to warm up) give the snapshot a spread
    cluster = benchmark.pedantic(one_second, rounds=7, iterations=1, warmup_rounds=1)
    # 10 nodes * 18 links / 0.1s sweep = 1800 probes per simulated second
    assert sum(bp.frames_carried.value for bp in cluster.backplanes) > 3000
