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

import numpy as np

from repro.analysis.exact import success_probability
from repro.analysis.montecarlo import simulate_full_grid, simulate_grid
from repro.simkit.rng import spawn_seedseq


def _streams(keys: dict, rng: np.random.Generator | None, seed: int | None) -> dict:
    """A generator per N: the shared ``rng``, or a child of ``seed`` keyed by ``keys[n]``.

    Exactly one of the two must be given.  A keyed child makes each N's
    estimate independent of which others ran, in any order or process.
    """
    if (rng is None) == (seed is None):
        raise TypeError("pass either rng= or seed=, not both and not neither")
    if rng is not None:
        return dict.fromkeys(keys, rng)
    return {n: np.random.default_rng(spawn_seedseq(seed, key)) for n, key in keys.items()}


def mean_absolute_deviation(
    f: int,
    iterations: int,
    rng: np.random.Generator | None = None,
    n_max: int = 63,
    seed: int | None = None,
) -> float:
    """Mean |simulated − exact| over the paper's domain ``f < N < 64``.

    With ``seed`` instead of ``rng``, every N gets an independently spawned
    stream keyed by ``(iterations, n, f)``, so one grid cell's estimate does
    not depend on which cells ran before it.
    """
    ns = range(max(2, f + 1), n_max + 1)
    streams = _streams({n: f"mad/f={f}/iters={iterations}/n={n}" for n in ns}, rng, seed)
    deviations = [
        abs(simulate_grid(n, (f,), iterations, streams[n])[f] - success_probability(n, f))
        for n in ns
    ]
    if not deviations:
        raise ValueError(f"empty N domain for f={f}, n_max={n_max}")
    return float(np.mean(deviations))


def mean_absolute_deviation_grid(
    f_values: tuple[int, ...],
    iterations: int,
    n_max: int = 63,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    target_half_width: float | None = None,
    confidence: float = 0.95,
    max_iterations: int | None = None,
    method: str = "crn",
) -> dict[int, float]:
    """MAD for *every* ``f`` in one pass of the sweep loop.

    With ``seed``, the entire (N, f) grid is **one**
    :func:`~repro.analysis.montecarlo.simulate_full_grid` call with
    explicit per-N streams: every N's rows stack into shared kernel
    calls, so a full Figure 3 column costs a handful of kernel
    invocations instead of one sweep per N.  The per-N streams keep the
    historical ``mad-grid/n={n}`` keys, so results are byte-identical to
    the per-N loop this replaced, and any subset of ``f_values``
    reproduces its slice of the full sweep.  A shared ``rng`` falls back
    to the sequential per-N loop (its draws are order-dependent by
    definition).

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
    streams = _streams({n: f"mad-grid/n={n}" for n in per_n_fs}, rng, seed)
    common = {
        "target_half_width": target_half_width,
        "confidence": confidence,
        "max_iterations": max_iterations,
        "method": method,
    }
    if seed is not None and per_n_fs:
        estimates_by_n = simulate_full_grid(
            tuple(per_n_fs), per_n_fs, iterations, streams, **common
        )
    else:
        estimates_by_n = {
            n: simulate_grid(n, fs, iterations, streams[n], **common)
            for n, fs in per_n_fs.items()
        }
    deviations: dict[int, list[float]] = {f: [] for f in f_values}
    for n, fs in per_n_fs.items():
        estimates = estimates_by_n[n]
        for f in fs:
            point = estimates[f].point if target_half_width is not None else estimates[f]
            deviations[f].append(abs(point - success_probability(n, f)))
    empty = [f for f, d in deviations.items() if not d]
    if empty:
        raise ValueError(f"empty N domain for f={empty[0]}, n_max={n_max}")
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


def convergence_study(
    f_values: list[int],
    iteration_grid: list[int],
    rng: np.random.Generator | None = None,
    n_max: int = 63,
    seed: int | None = None,
) -> ConvergenceStudy:
    """Regenerate Figure 3's data: MAD for each f over an iteration grid.

    The paper uses f = 2..10 and a log10-spaced iteration axis.  With
    ``seed`` instead of a shared ``rng``, every grid cell is an independent
    spawned stream (see :func:`mean_absolute_deviation`), which is what the
    job-parallel Figure 3 experiment uses.
    """
    mad = np.empty((len(f_values), len(iteration_grid)))
    for i, f in enumerate(f_values):
        for j, iters in enumerate(iteration_grid):
            mad[i, j] = mean_absolute_deviation(f, iters, rng, n_max=n_max, seed=seed)
    return ConvergenceStudy(
        f_values=tuple(f_values), iteration_grid=tuple(iteration_grid), mad=mad
    )
