"""EXP-AVAIL — downtime budgets: what proactive repair is worth per year.

Turns the paper's models into the number an operator signs an SLA against:
expected downtime minutes per server-pair per year, combining

* the structural layer (Equation 1 mixed over iid component states), and
* the transient layer (each path-affecting failure event costs one routing
  repair latency of outage),

for DRS-like (~1 s) versus reactive-like (~9 s) repair, across cluster
sizes, plus the field-calibrated weighted-failure correction.

The downtime table is closed-form; the weighted-failure correction is Monte
Carlo and decomposes into one engine job per (N, f) point with an
independently spawned stream.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis import (
    hub_nic_weight_ratio,
    pair_availability,
    simulate_weighted_success,
    success_probability,
)
from repro.engine import Job, JobPlan, run_plan
from repro.experiments.base import ExperimentResult

#: (N, f) grid of the field-calibrated weighted-failure spot checks.
WEIGHTED_POINTS: tuple[tuple[int, int], ...] = tuple((n, f) for n in (8, 16, 32) for f in (2, 3))


def _weighted_point(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> float:
    """Engine job: hub-weighted Monte Carlo P[Success] at one (N, f) point."""
    rng = np.random.default_rng(seed_seq)
    return simulate_weighted_success(
        params["n"], params["f"], params["iterations"], rng, hub_weight=params["hub_weight"]
    )


def build_plan(
    n_values: tuple[int, ...] = (4, 8, 12, 24, 48),
    mtbf_hours: float = 8_760.0,   # one failure per component-year
    mttr_hours: float = 24.0,
    drs_repair_s: float = 1.1,
    reactive_repair_s: float = 9.0,
    mc_iterations: int = 150_000,
    seed: int = 5,
) -> JobPlan:
    """One job per weighted-failure (N, f) spot check; the rest reduces."""
    jobs = [
        Job(
            name=f"weighted/n={n}/f={f}",
            fn=_weighted_point,
            params={
                "n": n,
                "f": f,
                "iterations": mc_iterations,
                "hub_weight": hub_nic_weight_ratio(n),
            },
        )
        for n, f in WEIGHTED_POINTS
    ]

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("availability")
        result.meta = {
            "seed": seed,
            "n_values": list(n_values),
            "mtbf_hours": mtbf_hours,
            "mttr_hours": mttr_hours,
            "mc_iterations": mc_iterations,
        }
        rows = []
        # Static routing never reroutes: the pair is down whenever any of the 3
        # active-path components (two NICs + the hub) is down -> full MTTRs.
        rho = mttr_hours / (mtbf_hours + mttr_hours)
        static_downtime = (1.0 - (1.0 - rho) ** 3) * 365.25 * 24 * 60
        for n in n_values:
            drs = pair_availability(n, mtbf_hours, mttr_hours, drs_repair_s)
            reactive = pair_availability(n, mtbf_hours, mttr_hours, reactive_repair_s)
            rows.append(
                [
                    n,
                    static_downtime,
                    reactive.downtime_minutes_per_year,
                    drs.downtime_minutes_per_year,
                    reactive.downtime_minutes_per_year - drs.downtime_minutes_per_year,
                    drs.nines,
                ]
            )
        result.add_table(
            "downtime",
            [
                "N",
                "static downtime (min/yr)",
                "reactive downtime (min/yr)",
                "DRS downtime (min/yr)",
                "saved by proactive (min/yr)",
                "nines (DRS)",
            ],
            rows,
            caption=f"Pair downtime budget (MTBF {mtbf_hours:.0f} h, MTTR {mttr_hours:.0f} h per component)",
        )
        result.note(
            "any rerouting (even reactive) removes the O(MTTR) outages static "
            "routing eats; proactive detection then trims the per-event transient "
            f"({reactive_repair_s:.0f}s -> {drs_repair_s:.1f}s per failure event)"
        )

        # field-calibrated weighted failures: hubs fail disproportionately often
        weighted_rows = []
        for n, f in WEIGHTED_POINTS:
            uniform = success_probability(n, f)
            ratio = hub_nic_weight_ratio(n)
            # quarantined points are absent: NaN keeps the table shape intact
            weighted = values.get(f"weighted/n={n}/f={f}", float("nan"))
            weighted_rows.append([n, f, ratio, uniform, weighted, weighted - uniform])
        result.add_table(
            "weighted",
            ["N", "f", "hub/NIC weight", "uniform P[S] (Eq. 1)", "field-weighted P[S]", "difference"],
            weighted_rows,
            caption="Equation 1 vs field-calibrated failure weights (hub-heavy)",
        )
        result.note(
            "hub-weighted draws lower survivability versus the paper's uniform "
            "assumption: the two shared hubs are exactly the components whose "
            "joint failure has no DRS answer"
        )
        return result

    return JobPlan(
        experiment="availability",
        seed=seed,
        jobs=jobs,
        reduce=reduce,
        meta={"total_trials": sum(j.params.get("iterations", 0) for j in jobs)},
    )


def run(
    n_values: tuple[int, ...] = (4, 8, 12, 24, 48),
    mtbf_hours: float = 8_760.0,
    mttr_hours: float = 24.0,
    drs_repair_s: float = 1.1,
    reactive_repair_s: float = 9.0,
    mc_iterations: int = 150_000,
    seed: int = 5,
    executor: Any | None = None,
    checkpoint: Any | None = None,
) -> ExperimentResult:
    """Downtime table per cluster size and repair regime."""
    plan = build_plan(
        n_values=n_values,
        mtbf_hours=mtbf_hours,
        mttr_hours=mttr_hours,
        drs_repair_s=drs_repair_s,
        reactive_repair_s=reactive_repair_s,
        mc_iterations=mc_iterations,
        seed=seed,
    )
    return run_plan(plan, executor, checkpoint=checkpoint)
