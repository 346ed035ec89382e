"""Figure 3: convergence of the simulation to Equation 1.

"The y-axis represents the mean absolute difference between the simulation
output and the equation value for f < N < 64.  The x-axis represents the
number of iterations in log10 scale.  With 1,000 iterations, the mean
absolute difference is less than [~0.01] for each of the fixed f values, and
as the number of iterations increases the mean absolute difference converges
to zero."
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.analysis.exact import success_probability
from repro.analysis.montecarlo import simulate_full_grid
from repro.simkit.rng import spawn_seedseq

#: Equation 1 at the (N, f) cells the deviation loop has read, which Figure 3
#: reads again at every iteration count.  The table lives here, not on
#: ``success_probability``: Figure 2's curves read N up to 1,000 once each, and
#: a process-wide table of them cost its distributed run 12 % more page faults.
_equation_1 = lru_cache(maxsize=None)(success_probability)


def mean_absolute_deviation_grid(
    f_values: tuple[int, ...],
    iterations: int,
    n_max: int = 63,
    *,
    seed: int,
    target_half_width: float | None = None,
    confidence: float = 0.95,
    max_iterations: int | None = None,
    method: str = "crn",
) -> dict[int, float]:
    """MAD for *every* ``f`` in one pass of the sweep loop.

    The entire (N, f) grid is **one**
    :func:`~repro.analysis.montecarlo.simulate_full_grid` call with
    per-N streams spawned from ``seed``: every N's rows stack into shared
    kernel calls, so a full Figure 3 column costs a handful of kernel
    invocations instead of one sweep per N.  The per-N streams keep the
    historical ``mad-grid/n={n}`` keys, so results are byte-identical to
    the per-N loop this replaced, and any subset of ``f_values``
    reproduces its slice of the full sweep.

    ``target_half_width`` switches the loop to adaptive-stopping mode:
    each (N, f) cell samples until its interval at ``confidence`` reaches
    the target (``iterations`` becomes the first-batch floor,
    ``max_iterations`` the per-N budget), so the MAD is computed over
    estimates of uniform precision instead of uniform trial count.
    ``method`` selects the estimator exactly as on
    :func:`~repro.analysis.montecarlo.simulate_grid` (``"crn"``,
    ``"stratified"``, ``"stratified-cv"``).
    """
    if not f_values:
        raise ValueError("f_values must name at least one failure count")
    per_n_fs: dict[int, tuple[int, ...]] = {}
    for n in range(max(2, min(f_values) + 1), n_max + 1):
        fs = tuple(f for f in f_values if n >= max(2, f + 1))
        if fs:
            per_n_fs[n] = fs
    empty = [f for f in f_values if not any(f in fs for fs in per_n_fs.values())]
    if empty:
        raise ValueError(f"empty N domain for f={empty[0]}, n_max={n_max}")
    streams = {n: np.random.default_rng(spawn_seedseq(seed, f"mad-grid/n={n}")) for n in per_n_fs}
    estimates_by_n = simulate_full_grid(
        tuple(per_n_fs),
        per_n_fs,
        iterations,
        streams,
        target_half_width=target_half_width,
        confidence=confidence,
        max_iterations=max_iterations,
        method=method,
    )
    deviations: dict[int, list[float]] = {f: [] for f in f_values}
    for n, fs in per_n_fs.items():
        estimates = estimates_by_n[n]
        for f in fs:
            point = estimates[f].point if target_half_width is not None else estimates[f]
            deviations[f].append(abs(point - _equation_1(n, f)))
    return {f: float(np.mean(deviations[f])) for f in f_values}


@dataclass(frozen=True)
class ConvergenceStudy:
    """Result grid: MAD per (f, iteration count)."""

    f_values: tuple[int, ...]
    iteration_grid: tuple[int, ...]
    mad: np.ndarray  # shape (len(f_values), len(iteration_grid))

    def series(self, f: int) -> np.ndarray:
        """The MAD-vs-iterations series for one f (one Figure 3 curve)."""
        return self.mad[self.f_values.index(f)]
