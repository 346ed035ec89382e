"""FIG3 — "Convergence of Simulation Results to Equation Results".

Regenerates the paper's Figure 3: for f = 2..10, the mean absolute
difference between the Monte Carlo estimate and Equation 1 over f < N < 64,
as a function of iteration count (log10 x-axis).  The paper's stated
checkpoint: with 1,000 iterations the deviation is below ~0.01 for every f,
and it converges toward zero.

The sweep decomposes into one *column-level* engine job per iteration
count: inside the job, every N of the domain is evaluated once by the
common-random-numbers kernel
(:func:`repro.analysis.montecarlo.simulate_grid`), which serves the entire
f-family from a single sampling pass — the f-dimension no longer multiplies
the sampling cost, and the whole grid is ``len(iteration_grid)`` jobs
instead of ``len(f_values) * len(iteration_grid)``.  Per-N streams are
spawned from the job's own seed and keyed by N alone, so any subset of
f-curves reproduces the corresponding slice of the full grid on any
executor backend.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis import mean_absolute_deviation_grid
from repro.analysis.convergence import ConvergenceStudy
from repro.engine import Job, JobPlan, curve_value
from repro.experiments.base import CI_CONFIDENCE, ExperimentResult
from repro.simkit.rng import seed_fingerprint

ITERATION_GRID = (10, 30, 100, 300, 1_000, 3_000, 10_000)
F_VALUES = tuple(range(2, 11))


def _mad_column(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> dict[str, float]:
    """Engine job: MAD for every f at one iteration count (one grid column).

    ``mean_absolute_deviation_grid`` spawns per-N children from an integer
    seed; fingerprint this job's spawned sequence to stay inside that
    contract.  Returns a string-keyed row for the checkpoint codec.

    With a ``target_ci`` the column's iteration count becomes a *budget*
    instead of an exact spend: each (N, f) cell starts at an eighth of the
    budget and stops early once its Wilson half-width reaches the target,
    so large columns stop paying for precision past the requested one.
    """
    iters = params["iterations"]
    target = params.get("target_ci")
    adaptive: dict[str, Any] = {}
    if target is not None:
        adaptive = {
            "target_half_width": target,
            "max_iterations": iters,
        }
        iters = max(1, iters // 8)
    mads = mean_absolute_deviation_grid(
        tuple(params["fs"]),
        iters,
        n_max=params["n_max"],
        seed=seed_fingerprint(seed_seq),
        method=params.get("method", "crn"),
        **adaptive,
    )
    return {str(f): mad for f, mad in mads.items()}


def build_plan(
    f_values: tuple[int, ...] = F_VALUES,
    iteration_grid: tuple[int, ...] = ITERATION_GRID,
    n_max: int = 63,
    seed: int = 2000,
    target_ci: float | None = None,
    mc_method: str = "crn",
) -> JobPlan:
    """Regenerate Figure 3: one curve-family job per iteration count (all f in-kernel).

    ``target_ci`` turns each column's iteration count into an adaptive
    budget: cells stop sampling early once their interval half-width at
    :data:`CI_CONFIDENCE` reaches the target (see :func:`_mad_column`).
    ``mc_method`` selects the estimator per column (``"crn"``,
    ``"stratified"``, ``"stratified-cv"``).  The values do not depend on
    the executor the plan runs on.
    """
    extra: dict[str, Any] = {}
    if target_ci is not None:
        extra = {"target_ci": target_ci}
    if mc_method != "crn":
        extra["method"] = mc_method
    jobs = [
        Job(
            name=f"mad/iters={iters}",
            fn=_mad_column,
            params={"fs": list(f_values), "iterations": iters, "n_max": n_max, **extra},
        )
        for iters in iteration_grid
    ]

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        # quarantined columns are absent: NaN keeps the grid shape intact
        mad = np.array(
            [
                [curve_value(values, f"mad/iters={iters}", str(f)) for iters in iteration_grid]
                for f in f_values
            ]
        )
        study = ConvergenceStudy(
            f_values=tuple(f_values), iteration_grid=tuple(iteration_grid), mad=mad
        )
        result = ExperimentResult("figure3")
        result.meta = {
            "seed": seed,
            "f_values": list(f_values),
            "iteration_grid": list(iteration_grid),
            "n_max": n_max,
            "mc_method": mc_method,
        }
        if target_ci is not None:
            result.meta["target_ci"] = target_ci
            result.meta["ci_confidence"] = CI_CONFIDENCE
        curves = {
            f"f={f}": (np.array(iteration_grid, dtype=float), study.series(f))
            for f in f_values
        }
        result.add_series(
            "mad",
            curves,
            caption="Figure 3: mean |simulation - Equation 1| over f<N<64",
            x_label="iterations",
            y_label="mean absolute deviation",
            x_log=True,
        )
        if 1_000 in iteration_grid:
            column = iteration_grid.index(1_000)
            rows = [[f, float(study.mad[i, column])] for i, f in enumerate(f_values)]
            result.add_table(
                "at_1000_iterations",
                ["f", "MAD at 1,000 iterations"],
                rows,
                caption="Paper checkpoint: MAD < ~0.01 at 1,000 iterations for every f",
            )
            worst = max(float(study.mad[i, column]) for i in range(len(f_values)))
            result.note(f"worst-case MAD at 1,000 iterations: {worst:.5f} (paper bound ~0.01)")
        # slope check: MC error should shrink ~ 1/sqrt(iterations)
        first, last = study.mad[:, 0].mean(), study.mad[:, -1].mean()
        expected_ratio = (iteration_grid[-1] / iteration_grid[0]) ** 0.5
        result.note(
            f"mean MAD shrank {first / last:.1f}x from {iteration_grid[0]} to "
            f"{iteration_grid[-1]} iterations (1/sqrt scaling predicts ~{expected_ratio:.1f}x)"
        )
        return result

    # each mad/iters=K job runs K heartbeat-counted trials per N in its grid
    n_count = n_max - max(2, min(f_values) + 1) + 1
    return JobPlan(
        experiment="figure3",
        seed=seed,
        jobs=jobs,
        reduce=reduce,
        meta={"total_trials": n_count * sum(iteration_grid)},
    )
