"""Performance bench — the generic topology kernels vs the specialized path.

Guards the tentpole refactor's "generality is free for the paper" claim:

* ``test_dual_hub_fast_path_overhead`` is the CI perf smoke — running the
  dual-hub grid *through the generic API* must stay within 1.3x of the
  specialized ``simulate_grid`` it dispatches to (the fast-path hooks mean
  the only extra work is dispatch itself).
* ``test_generic_bfs_grid_throughput`` records what the assumption-free
  path costs: the same graph rebuilt as ``khub(hubs=2)`` has no attached
  kernels, so every threshold goes through the bit-packed BFS binary
  search.  No assertion on the ratio — the snapshot documents it and the
  bench-diff step of ``make quick-obs`` catches regressions.
* ``test_exact_enumeration_throughput`` prices the exhaustive oracle per
  failure set; it trips on a return to one Python BFS per set (~25 us).

Every row is ``ROUNDS`` measured rounds, so the committed
``BENCH_bench_topology_kernel.json`` (full-profile numbers) carries a
spread for ``bench-diff``; ``TOPOLOGY_BENCH_ITERATIONS`` shrinks the
workload for the quick CI profile.
"""

import os
from math import comb
from time import perf_counter

import numpy as np

from repro.analysis import (
    enumerate_topology_success,
    simulate_grid,
    simulate_topology_grid,
    topology_connected_vec,
)
from repro.topology import (
    dual_hub_cluster,
    fat_tree_three_level,
    k_hub_cluster,
    multi_cluster_wan,
)

N = 63
F_GRID = (2, 3, 4, 5, 6)
ITERATIONS = int(os.environ.get("TOPOLOGY_BENCH_ITERATIONS", "500000"))
ROUNDS = 5


def test_dual_hub_fast_path_overhead(benchmark):
    """CI perf smoke: generic dispatch must cost < 30% over the raw kernel."""
    topology = dual_hub_cluster(N)

    specialized_s = float("inf")
    for _ in range(ROUNDS):
        started = perf_counter()
        specialized = simulate_grid(N, F_GRID, ITERATIONS, rng=np.random.default_rng(0))
        specialized_s = min(specialized_s, perf_counter() - started)

    generic = benchmark.pedantic(
        lambda: simulate_topology_grid(topology, F_GRID, ITERATIONS, rng=np.random.default_rng(0)),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=0,
    )
    generic_s = benchmark.stats.stats.min  # best of ROUNDS on both sides

    assert generic == specialized  # same draws through either API, exactly
    ratio = generic_s / specialized_s
    benchmark.extra_info["specialized_seconds"] = round(specialized_s, 4)
    benchmark.extra_info["ratio_vs_specialized"] = round(ratio, 3)
    assert ratio <= 1.3, (
        f"dual-hub fast path ({generic_s:.2f}s) exceeds 1.3x the specialized "
        f"kernel ({specialized_s:.2f}s) at {ITERATIONS} iterations"
    )


def test_generic_bfs_grid_throughput(benchmark):
    """The assumption-free path (packed BFS + binary search): same graph, no hooks."""
    topology = k_hub_cluster(N, hubs=2)  # the dual-hub graph, generic kernels
    iterations = max(ITERATIONS // 10, 10_000)
    estimates = benchmark.pedantic(
        lambda: simulate_topology_grid(topology, F_GRID, iterations, rng=np.random.default_rng(0)),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["iterations"] = iterations
    values = [estimates[f] for f in F_GRID]
    assert all(a >= b for a, b in zip(values, values[1:]))  # CRN monotone in f


def test_batched_bfs_predicate_throughput(benchmark):
    """The bit-packed BFS predicate stays vectorized on a deep (3-level) graph."""
    topology = fat_tree_three_level(64, pods=4, leaves_per_pod=4, aggs_per_pod=4, cores=4)
    rng = np.random.default_rng(3)
    failed = rng.random((50_000, topology.width)) < 0.1
    ok = benchmark.pedantic(
        lambda: topology_connected_vec(topology, failed), rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert ok.shape == (50_000,)
    assert 0 < ok.sum() < 50_000


def test_exact_enumeration_throughput(benchmark):
    """Exhaustive enumeration runs in the packed domain: microseconds, not tens, per set."""
    topology = multi_cluster_wan(4)  # width 33: C(33, 4) = 40,920 failure sets
    combinations = comb(topology.width, 4)
    exact = benchmark.pedantic(
        lambda: enumerate_topology_success(topology, 4), rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    us_per_combination = benchmark.stats.stats.median / combinations * 1e6
    benchmark.extra_info["combinations"] = combinations
    benchmark.extra_info["us_per_combination"] = round(us_per_combination, 3)
    assert 0.0 < exact < 1.0
    assert us_per_combination <= 3.0, (
        f"enumeration costs {us_per_combination:.2f} us per failure set; the packed "
        f"kernel runs at ~0.3 and one pure-Python BFS per set at ~25"
    )
