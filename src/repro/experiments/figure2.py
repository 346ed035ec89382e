"""FIG2 — "Convergence of P[Success] to 1".

Regenerates the paper's Figure 2: Equation-1 P[Success] versus cluster size
for f = 2..10 simultaneous failures over the paper's domain f < N < 64,
optionally overlaid with Monte Carlo estimates from the validation
simulator.

The Monte Carlo overlay decomposes into one *curve-level* engine job per N:
the common-random-numbers sweep kernel
(:func:`repro.analysis.montecarlo.simulate_grid`) evaluates the entire
f-family at that N from a single sampling pass, so the f-dimension costs
one draw instead of ``len(f_values)`` draws and the overlay curves are
monotone in f by construction (nested failure sets — no jittery crossings).
Each job's seed is spawned from ``(seed, "figure2", job name)`` and keyed by
N alone, never by the f-list, so any subset of curves or points reproduces
the full run and serial/parallel backends agree bit for bit.  (A historical
seed-reuse bug threaded one generator sequentially through all f-curves, so
the ``f=3`` overlay depended on whether ``f=2`` ran first.)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis import simulate_grid, success_curve
from repro.engine import Job, JobPlan, cell_point
from repro.experiments.base import (
    CI_CONFIDENCE,
    ExperimentResult,
    add_precision_artifacts,
    collect_precision_cells,
)

F_VALUES = tuple(range(2, 11))


def _mc_curve(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> dict[str, Any]:
    """Engine job: Monte Carlo P[Success] at one N for every requested f.

    Returns a string-keyed row so the value round-trips exactly through the
    checkpoint codec: ``{"f": estimate}`` floats for fixed-count runs, or
    full per-cell precision dicts (point, Wilson bounds, trials) when the
    plan carries a ``target_ci`` — the adaptive-stopping kernel then runs
    each cell only until its interval is tight enough.  Every curve job of
    figure2 and crossovers is this function.
    """
    target = params.get("target_ci")
    cells = simulate_grid(
        params["n"],
        tuple(params["fs"]),
        params["iterations"],
        np.random.default_rng(seed_seq),
        target_half_width=target,
        method=params.get("method", "crn"),
    )
    if target is None:
        return {str(f): p for f, p in cells.items()}
    return {str(f): cell.to_row() for f, cell in cells.items()}


def build_plan(
    f_values: tuple[int, ...] = F_VALUES,
    n_max: int = 63,
    mc_iterations: int = 0,
    seed: int = 2000,
    target_ci: float | None = None,
    mc_method: str = "crn",
) -> JobPlan:
    """Regenerate Figure 2: one curve-level Monte Carlo job per N.

    The Equation-1 curves are closed-form and cheap; they are computed in
    the reduction rather than shipped as jobs.  ``mc_iterations > 0`` adds
    a Monte Carlo overlay series per f (the paper's simulation points).
    With ``target_ci``, each job samples adaptively: ``mc_iterations``
    becomes the first-batch floor, every (N, f) cell stops at that
    interval half-width at :data:`CI_CONFIDENCE`, and the result gains the
    ``mc_precision`` table plus a manifest precision block.
    ``mc_method`` selects the overlay estimator (``"crn"``,
    ``"stratified"``, or ``"stratified-cv"`` — see
    :func:`repro.analysis.montecarlo.simulate_grid`).  The values do not
    depend on the executor the plan runs on.
    """
    jobs = []
    if mc_iterations > 0:
        for n in range(max(2, min(f_values) + 1), n_max + 1):
            fs = [f for f in f_values if n >= max(2, f + 1)]
            params: dict[str, Any] = {"n": n, "fs": fs, "iterations": mc_iterations}
            if target_ci is not None:
                params["target_ci"] = target_ci
            if mc_method != "crn":
                params["method"] = mc_method
            jobs.append(Job(name=f"mc/n={n}", fn=_mc_curve, params=params))

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("figure2")
        result.meta = {
            "seed": seed,
            "f_values": list(f_values),
            "n_max": n_max,
            "mc_iterations": mc_iterations,
            "mc_method": mc_method,
        }
        if target_ci is not None:
            result.meta["target_ci"] = target_ci
            result.meta["ci_confidence"] = CI_CONFIDENCE
        curves: dict[str, tuple] = {}
        for f in f_values:
            ns, ps = success_curve(f, n_max=n_max)
            curves[f"f={f}"] = (ns, ps)
        result.add_series(
            "equation1",
            curves,
            caption="Figure 2: P[Success] vs nodes (Equation 1)",
            x_label="nodes",
            y_label="P[Success]",
        )
        if mc_iterations > 0:
            mc_curves: dict[str, tuple] = {}
            for f in f_values:
                ns = np.arange(max(2, f + 1), n_max + 1)
                # quarantined jobs are absent: their points plot as NaN gaps
                ps = np.array([cell_point(values, f"mc/n={n}", str(f)) for n in ns])
                mc_curves[f"sim f={f}"] = (ns, ps)
            result.add_series(
                "montecarlo",
                mc_curves,
                caption=f"Figure 2 overlay: Monte Carlo, {mc_iterations} iterations"
                if target_ci is None
                else f"Figure 2 overlay: Monte Carlo, adaptive to ±{target_ci:g}",
                x_label="nodes",
                y_label="P[Success]",
            )
            add_precision_artifacts(result, collect_precision_cells(values), target_ci)
        # summary rows the paper quotes in prose
        rows = []
        for f in f_values:
            ns, ps = curves[f"f={f}"]
            rows.append([f, float(ps[0]), float(ps[-1])])
        result.add_table(
            "endpoints",
            ["f", f"P[S] at N=f+1", f"P[S] at N={n_max}"],
            rows,
            caption="Curve endpoints: every f-series climbs toward 1",
        )
        return result

    return JobPlan(
        experiment="figure2",
        seed=seed,
        jobs=jobs,
        reduce=reduce,
        # each MC job runs exactly its `iterations` heartbeat-counted trials;
        # the engine installs this total on the ProgressReporter for ETA lines
        meta={"total_trials": sum(j.params.get("iterations", 0) for j in jobs)},
    )
