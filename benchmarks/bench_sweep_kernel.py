"""Performance bench — one sweep over the f-grid vs one one-cell sweep per f.

``simulate_success_probability`` is the sweep loop at a single ``f``
(``simulate_grid(n, (f,), ...)`` on its own stream key), so both sides of
this bench run the same kernel: what one ``simulate_grid`` call over the
whole f-grid saves over ``len(fs)`` per-point calls is ``len(fs) - 1``
sampling passes — key draws and threshold reductions — because every f is
read off the one per-row breakdown-threshold histogram.

``test_speedup_grid_vs_per_point`` is the CI perf smoke: it *fails* if the
grid call is ever slower than the per-point calls (a regression to per-f
sampling or an accidental Python loop would trip it).  The committed
``BENCH_bench_sweep_kernel.json`` snapshot records the full-profile
speedup (>= 3x on the reference machine); ``SWEEP_BENCH_ITERATIONS``
shrinks the workload for the quick CI profile.
"""

import os
from time import perf_counter

import numpy as np

from repro.analysis import simulate_grid, simulate_success_probability
from repro.analysis.montecarlo import connectivity_levels, failure_rank_matrix

N = 63
F_GRID = (2, 3, 4, 5, 6)
ITERATIONS = int(os.environ.get("SWEEP_BENCH_ITERATIONS", "500000"))
#: rounds per timed side, so ``bench-diff``'s CI-width-aware gate has a variance
ROUNDS = 5


def test_sweep_kernel_throughput(benchmark):
    estimates = benchmark.pedantic(
        lambda: simulate_grid(N, F_GRID, ITERATIONS, rng=np.random.default_rng(0)),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=0,
    )
    assert sorted(estimates) == list(F_GRID)
    # monotone in f by construction (nested failure sets)
    values = [estimates[f] for f in F_GRID]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_per_point_equivalent_workload(benchmark):
    def per_point():
        rng = np.random.default_rng(0)
        return {f: simulate_success_probability(N, f, ITERATIONS, rng) for f in F_GRID}

    estimates = benchmark.pedantic(per_point, rounds=ROUNDS, iterations=1, warmup_rounds=0)
    assert sorted(estimates) == list(F_GRID)


def test_speedup_grid_vs_per_point(benchmark):
    """CI perf smoke: the sweep kernel must not be slower than per-point."""

    def grid():
        return simulate_grid(N, F_GRID, ITERATIONS, rng=np.random.default_rng(1))

    per_point_s = float("inf")
    for _ in range(ROUNDS):
        started = perf_counter()
        rng = np.random.default_rng(1)
        for f in F_GRID:
            simulate_success_probability(N, f, ITERATIONS, rng)
        per_point_s = min(per_point_s, perf_counter() - started)

    benchmark.pedantic(grid, rounds=ROUNDS, iterations=1, warmup_rounds=0)
    grid_s = benchmark.stats.stats.min  # best of ROUNDS on both sides

    speedup = per_point_s / grid_s
    benchmark.extra_info["per_point_seconds"] = round(per_point_s, 4)
    benchmark.extra_info["speedup_vs_per_point"] = round(speedup, 2)
    assert speedup >= 1.0, (
        f"sweep kernel ({grid_s:.2f}s) slower than {len(F_GRID)} per-point "
        f"calls ({per_point_s:.2f}s) at {ITERATIONS} iterations"
    )


def test_rank_basis_throughput(benchmark):
    """The testable rank basis stays vectorized (argsort path, no hot loop)."""
    rng = np.random.default_rng(2)
    levels = benchmark(lambda: connectivity_levels(failure_rank_matrix(N, 50_000, rng)))
    assert levels.shape == (50_000,)
    assert levels.min() >= 0 and levels.max() <= 2 * N + 1
