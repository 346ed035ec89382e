"""TAB-CROSS — the paper's prose crossover table.

"For f=2 the P[S] surpasses 0.99 at 18 nodes.  For f=3 the P[S] surpasses
0.99 at 3[2] nodes, and for f=4 the P[S] surpasses 0.99 at 45 nodes."

With ``mc_iterations > 0`` the analytic table gains a Monte Carlo
validation column: one curve-level engine job per N runs the
common-random-numbers sweep kernel
(:func:`repro.analysis.montecarlo.simulate_grid`) over the whole f-family,
and the reduction reads each f's simulated crossover off the shared
estimates.  Because the per-N draws are shared across f (nested failure
sets), the simulated crossovers are monotone in f *by construction* — they
cannot jitter past each other the way independently sampled curves did.
"""

from __future__ import annotations

from typing import Any

from repro.analysis import crossover_n, success_probability
from repro.engine import Job, JobPlan, cell_point
from repro.experiments.base import (
    CI_CONFIDENCE,
    ExperimentResult,
    add_precision_artifacts,
    collect_precision_cells,
)
from repro.experiments.figure2 import _mc_curve

PAPER_CROSSOVERS = {2: 18, 3: 32, 4: 45}

F_VALUES = (2, 3, 4, 5, 6, 7, 8, 9, 10)


def build_plan(
    f_values: tuple[int, ...] = F_VALUES,
    threshold: float = 0.99,
    mc_iterations: int = 0,
    seed: int = 2000,
    target_ci: float | None = None,
) -> JobPlan:
    """Compute the ``threshold`` crossover for each f and compare with the paper.

    The analytic table is always computed in the reduction.
    ``mc_iterations > 0`` adds the sweep-kernel validation table: one
    curve-level MC job per probed N (figure2's job), over a probe domain
    sized from the (memoized) analytic scan — a little past the largest
    crossover, so every f's simulated crossing falls inside the sampled
    range.  ``target_ci`` makes the validation adaptive (every cell stops
    at that Wilson half-width) and adds the ``mc_precision`` table plus a
    manifest precision block.
    """
    n_stars = {f: crossover_n(f, threshold=threshold) for f in f_values}
    jobs = []
    n_lo = max(2, min(f_values) + 1)
    n_hi = max(n_stars.values()) + 2
    if mc_iterations > 0:
        for n in range(n_lo, n_hi + 1):
            fs = [f for f in f_values if n >= max(2, f + 1)]
            params: dict[str, Any] = {"n": n, "fs": fs, "iterations": mc_iterations}
            if target_ci is not None:
                params["target_ci"] = target_ci
            jobs.append(Job(name=f"mc/n={n}", fn=_mc_curve, params=params))

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("crossovers")
        result.meta = {
            "seed": seed,
            "f_values": list(f_values),
            "threshold": threshold,
            "mc_iterations": mc_iterations,
        }
        if target_ci is not None:
            result.meta["target_ci"] = target_ci
            result.meta["ci_confidence"] = CI_CONFIDENCE
        rows = []
        for f in f_values:
            n_star = n_stars[f]
            paper = PAPER_CROSSOVERS.get(f, "-")
            rows.append(
                [
                    f,
                    n_star,
                    paper,
                    float(success_probability(n_star, f)),
                    float(success_probability(n_star - 1, f)) if n_star > f + 1 else float("nan"),
                ]
            )
        result.add_table(
            "crossovers",
            ["f", f"N where P[S] > {threshold}", "paper", "P[S] at N*", "P[S] at N*-1"],
            rows,
            caption="0.99 crossover cluster sizes (paper states f=2,3,4)",
        )
        matches = all(crossover_n(f, threshold) == n for f, n in PAPER_CROSSOVERS.items())
        result.note(f"paper checkpoints (18/32/45) reproduced exactly: {matches}")
        if mc_iterations > 0:
            mc_rows = []
            for f in f_values:
                mc_star = None
                for n in range(max(2, f + 1), n_hi + 1):
                    estimate = cell_point(values, f"mc/n={n}", str(f))
                    if estimate > threshold:  # NaN (quarantined) compares False
                        mc_star = n
                        break
                mc_rows.append(
                    [f, n_stars[f], mc_star if mc_star is not None else float("nan")]
                )
            result.add_table(
                "mc_crossovers",
                ["f", "analytic N*", f"simulated N* ({mc_iterations} iterations)"],
                mc_rows,
                caption="Sweep-kernel validation: simulated vs analytic crossovers",
            )
            result.note(
                "simulated crossovers share per-N draws across f (common random "
                "numbers), so they are monotone in f by construction"
            )
            add_precision_artifacts(result, collect_precision_cells(values), target_ci)
        return result

    return JobPlan(
        experiment="crossovers",
        seed=seed,
        jobs=jobs,
        reduce=reduce,
        meta={"total_trials": sum(j.params.get("iterations", 0) for j in jobs)},
    )
