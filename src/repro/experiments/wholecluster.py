"""EXP-ALLPAIRS — pairwise vs whole-cluster survivability (extension).

Equation 1 guarantees a *pair*; operators usually need the *cluster*.  This
experiment contrasts the two:

1. at fixed f (the paper's conditional regime), all-pairs survivability
   converges to 1 like Equation 1 but visibly below it;
2. under iid component failures (failure count growing with N), the two
   diverge qualitatively — pairwise availability keeps improving with
   cluster size while whole-cluster availability peaks and then decays.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis import (
    allpairs_success_curve,
    allpairs_success_probability,
    iid_allpairs_success_probability,
    iid_success_probability,
    simulate_topology_grid,
    success_curve,
)
from repro.engine import Job, JobPlan, run_plan
from repro.experiments.base import ExperimentResult
from repro.topology import AllTerminalsConnected, dual_hub_cluster

#: (N, f) points where the all-pairs closed form is spot-checked by MC.
CHECK_POINTS: tuple[tuple[int, int], ...] = ((8, 3), (16, 4), (32, 5))


def _allpairs_check(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> float:
    """Engine job: Monte Carlo all-pairs survivability at one (N, f) point."""
    rng = np.random.default_rng(seed_seq)
    topology, f = dual_hub_cluster(params["n"]), params["f"]
    return simulate_topology_grid(
        topology, (f,), params["iterations"], rng, predicate=AllTerminalsConnected()
    )[f]


def build_plan(
    f_values: tuple[int, ...] = (2, 4, 6),
    n_max: int = 63,
    rho_values: tuple[float, ...] = (0.005, 0.02),
    iid_n_values: tuple[int, ...] = (4, 8, 16, 32, 48, 63),
    mc_iterations: int = 50_000,
    seed: int = 12,
) -> JobPlan:
    """One job per Monte Carlo spot check; the closed forms reduce in-process."""
    jobs = [
        Job(
            name=f"mc_check/n={n}/f={f}",
            fn=_allpairs_check,
            params={"n": n, "f": f, "iterations": mc_iterations},
        )
        for n, f in CHECK_POINTS
    ]

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("wholecluster")
        result.meta = {
            "seed": seed,
            "f_values": list(f_values),
            "n_max": n_max,
            "mc_iterations": mc_iterations,
        }

        curves = {}
        for f in f_values:
            ns, pair_ps = success_curve(f, n_max=n_max)
            _, all_ps = allpairs_success_curve(f, n_max=n_max)
            curves[f"pair f={f}"] = (ns, pair_ps)
            curves[f"all f={f}"] = (ns, all_ps)
        result.add_series(
            "conditional",
            curves,
            caption="Fixed-f regime: whole-cluster survivability trails Equation 1",
            x_label="nodes",
            y_label="P[Success]",
        )

        iid_rows = []
        for rho in rho_values:
            for n in iid_n_values:
                iid_rows.append(
                    [rho, n, iid_success_probability(n, rho), iid_allpairs_success_probability(n, rho)]
                )
        result.add_table(
            "iid_regime",
            ["rho", "N", "pairwise availability", "whole-cluster availability"],
            iid_rows,
            caption="iid regime: growing the cluster helps any pair, hurts the whole",
        )

        check_rows = []
        for n, f in CHECK_POINTS:
            exact = allpairs_success_probability(n, f)
            # quarantined points are absent: NaN keeps the table shape intact
            mc = values.get(f"mc_check/n={n}/f={f}", float("nan"))
            check_rows.append([n, f, exact, mc, abs(exact - mc)])
        result.add_table(
            "mc_check",
            ["N", "f", "closed form", "Monte Carlo", "|diff|"],
            check_rows,
            caption="All-pairs closed form vs simulation",
        )
        worst_gap = max(abs(r[4]) for r in check_rows)
        result.note(
            f"all-pairs closed form vs MC worst |diff| = {worst_gap:.4f} at {mc_iterations} iterations"
        )
        return result

    return JobPlan(
        experiment="wholecluster",
        seed=seed,
        jobs=jobs,
        reduce=reduce,
        meta={"total_trials": sum(j.params.get("iterations", 0) for j in jobs)},
    )


def run(
    f_values: tuple[int, ...] = (2, 4, 6),
    n_max: int = 63,
    rho_values: tuple[float, ...] = (0.005, 0.02),
    iid_n_values: tuple[int, ...] = (4, 8, 16, 32, 48, 63),
    mc_iterations: int = 50_000,
    seed: int = 12,
    executor: Any | None = None,
    checkpoint: Any | None = None,
) -> ExperimentResult:
    """Both regimes plus a Monte Carlo spot check of the new closed form."""
    plan = build_plan(
        f_values=f_values,
        n_max=n_max,
        rho_values=rho_values,
        iid_n_values=iid_n_values,
        mc_iterations=mc_iterations,
        seed=seed,
    )
    return run_plan(plan, executor, checkpoint=checkpoint)
