"""Ablations of the design choices the paper asserts but never varies.

1. **Two-hop routing** — how much of Equation 1's survivability comes from
   the broadcast route-discovery stage versus plain dual-NIC redundancy.
2. **Second backplane** — survivability of the same fleet with a single
   shared network (the architecture DRS's redundant network replaces).
3. **Sweep period** — the proactive-cost knob: measured detection latency
   versus probe bandwidth on the live DES, tracing out the continuum from
   "DRS" to "reactive" the paper alludes to ("if the links were not checked
   frequently, the DRS would become equivalent to a reactive routing
   protocol").
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

import numpy as np

from repro.analysis import simulate_grid, success_probability
from repro.analysis.combinatorics import comb0
from repro.drs import DrsConfig
from repro.engine import Job, JobPlan, run_plan
from repro.experiments.base import ExperimentResult
from repro.scenario.run import peer_nic_failures
from repro.scenario.spec import ScenarioSpec, Warmup


def single_backplane_success(n: int, f: int) -> float:
    """Exact pair survivability with one backplane and one NIC per node.

    Universe: n NICs + 1 hub = n+1 components.  The pair fails iff the hub
    fails or either endpoint NIC fails::

        B1(n, f) = C(n, f-1) + [C(n, f) - C(n-2, f)]
        P        = 1 - B1 / C(n+1, f)
    """
    if n < 2:
        raise ValueError("need n >= 2")
    total = comb0(n + 1, f)
    if total == 0:
        raise ValueError(f"no failure sets of size {f} for single-backplane n={n}")
    bad = comb0(n, f - 1) + (comb0(n, f) - comb0(n - 2, f))
    return 1.0 - bad / total


def measured_detection_latency(sweep_period_s: float, n: int = 6, repeats: int = 5) -> tuple[float, float]:
    """(mean detection+repair latency, probe overhead bps) on the live DES."""
    warmup = 2 * sweep_period_s + 1.0
    end = warmup + 3 * sweep_period_s + 1.0
    config = DrsConfig(sweep_period_s=sweep_period_s, probe_timeout_s=0.02, probe_retries=2)
    spec = ScenarioSpec("ablations", n, end, "drs", asdict(config), warmup=Warmup(warmup), window_s=(warmup, end))
    latency, reports = peer_nic_failures(spec, repeats)
    overhead = sum(sum(report.window_bits) / (end - warmup) for report in reports)
    return latency, overhead / repeats


def _no_two_hop_point(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> float:
    """Engine job: Monte Carlo P[Success] without two-hop routing at (N, f)."""
    rng = np.random.default_rng(seed_seq)
    n, f = params["n"], params["f"]
    return simulate_grid(n, (f,), params["iterations"], rng, two_hop=False)[f]


def _sweep_period_point(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> tuple[float, float]:
    """Engine job: live-DES detection latency + probe overhead at one period.

    The DES cluster here is deterministic (no frame loss), so the spawned
    seed is unused — the job is still independent and relocatable.
    """
    return measured_detection_latency(params["sweep_period_s"])


def build_plan(
    n_values: tuple[int, ...] = (8, 16, 32, 48, 63),
    f_values: tuple[int, ...] = (2, 4),
    mc_iterations: int = 100_000,
    sweep_periods: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    seed: int = 7,
    run_des: bool = True,
) -> JobPlan:
    """One job per MC ablation point plus one per DES sweep period."""
    jobs = [
        Job(
            name=f"no2hop/n={n}/f={f}",
            fn=_no_two_hop_point,
            params={"n": n, "f": f, "iterations": mc_iterations},
        )
        for f in f_values
        for n in n_values
    ]
    if run_des:
        jobs += [
            Job(
                name=f"des/period={period}",
                fn=_sweep_period_point,
                params={"sweep_period_s": period},
            )
            for period in sweep_periods
        ]

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("ablations")
        result.meta = {
            "seed": seed,
            "n_values": list(n_values),
            "f_values": list(f_values),
            "mc_iterations": mc_iterations,
            "sweep_periods": list(sweep_periods),
            "run_des": run_des,
        }

        # 1 + 2: routing/redundancy ablations on the survivability model
        rows = []
        for f in f_values:
            for n in n_values:
                full = success_probability(n, f)
                # quarantined points are absent: NaN keeps the table shape
                no_two_hop = values.get(f"no2hop/n={n}/f={f}", float("nan"))
                single = single_backplane_success(n, f)
                rows.append([n, f, full, no_two_hop, single])
        result.add_table(
            "survivability",
            ["N", "f", "DRS (Eq. 1)", "no two-hop (MC)", "single backplane"],
            rows,
            caption="What each architectural ingredient buys (pair survivability)",
        )
        result.note(
            "single-backplane numbers use the exact closed form B1(n,f); the no-two-hop "
            f"column is Monte Carlo with {mc_iterations} iterations"
        )

        # 3: proactive-cost continuum on the live DES
        if run_des:
            des_rows = []
            nan_pair = (float("nan"), float("nan"))
            for period in sweep_periods:
                latency, overhead_bps = values.get(f"des/period={period}", nan_pair)
                des_rows.append([period, latency, overhead_bps / 1e3])
            result.add_table(
                "sweep_period",
                ["sweep period (s)", "mean detect+repair (s)", "probe overhead (kb/s)"],
                des_rows,
                caption="Proactive-cost continuum: check less often, detect later (DES, N=6)",
            )
        return result

    return JobPlan(
        experiment="ablations",
        seed=seed,
        jobs=jobs,
        reduce=reduce,
        meta={"total_trials": sum(j.params.get("iterations", 0) for j in jobs)},
    )


def run(
    n_values: tuple[int, ...] = (8, 16, 32, 48, 63),
    f_values: tuple[int, ...] = (2, 4),
    mc_iterations: int = 100_000,
    sweep_periods: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    seed: int = 7,
    run_des: bool = True,
    executor: Any | None = None,
    checkpoint: Any | None = None,
) -> ExperimentResult:
    """All three ablations."""
    plan = build_plan(
        n_values=n_values,
        f_values=f_values,
        mc_iterations=mc_iterations,
        sweep_periods=sweep_periods,
        seed=seed,
        run_des=run_des,
    )
    return run_plan(plan, executor, checkpoint=checkpoint)
