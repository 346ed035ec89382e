"""EXP-SCALING — DRS across the deployed cluster-size range and beyond.

"The DRS was deployed in 27 local voice mail server clusters … each cluster
contains between 8 and 12 servers."  This experiment sweeps cluster size
and reports, at a fixed sweep period:

* failover latency (should be size-independent — detection is per-link),
* probe bandwidth (grows quadratically — Figure 1's other axis),
* the feasibility boundary from :meth:`DrsConfig.for_deployment` for a
  1-second detection target at the paper's 15% budget cap.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

import numpy as np

from repro.drs import DrsConfig
from repro.engine import Job, JobPlan, run_plan
from repro.experiments.base import ExperimentResult
from repro.scenario.run import peer_nic_failures
from repro.scenario.spec import ScenarioSpec, Warmup


def measure_point(n: int, sweep_period_s: float = 0.5, repeats: int = 3) -> tuple[float, float]:
    """(mean detect+repair latency, probe load fraction) at cluster size n."""
    warmup = 2 * sweep_period_s + 0.5
    end = warmup + 3 * sweep_period_s + 0.5
    config = DrsConfig(sweep_period_s=sweep_period_s, probe_timeout_s=0.01)
    spec = ScenarioSpec("scaling", n, end, "drs", asdict(config), warmup=Warmup(warmup), window_s=(warmup, end))
    latency, reports = peer_nic_failures(spec, repeats)
    load = sum(sum(report.window_bits) / (2 * 100e6 * (end - warmup)) for report in reports)
    return latency, load / repeats


def _size_point(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> tuple[float, float]:
    """Engine job: latency + probe load at one cluster size (deterministic DES)."""
    return measure_point(params["n"], params["sweep_period_s"])


def build_plan(
    n_values: tuple[int, ...] = (4, 8, 12, 16, 24),
    sweep_period_s: float = 0.5,
    detection_target_s: float = 1.0,
    budget_cap: float = 0.15,
    seed: int = 0,
) -> JobPlan:
    """One DES job per cluster size; the feasibility boundary reduces."""
    jobs = [
        Job(name=f"size/n={n}", fn=_size_point, params={"n": n, "sweep_period_s": sweep_period_s})
        for n in n_values
    ]

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("scaling")
        result.meta = {
            "seed": seed,
            "n_values": list(n_values),
            "sweep_period_s": sweep_period_s,
            "detection_target_s": detection_target_s,
            "budget_cap": budget_cap,
        }
        rows = []
        nan_pair = (float("nan"), float("nan"))
        for n in n_values:
            # quarantined sizes are absent: NaN keeps the table shape intact
            latency, load = values.get(f"size/n={n}", nan_pair)
            rows.append([n, latency, load])
        result.add_table(
            "scaling",
            ["N", "detect+repair (s)", "probe load (fraction of both segments)"],
            rows,
            caption=f"Fixed sweep {sweep_period_s}s across cluster sizes (deployed range: 8-12)",
        )
        latencies = [r[1] for r in rows]
        result.note(
            f"failover latency is size-independent ({min(latencies):.2f}-{max(latencies):.2f} s "
            f"across N={n_values[0]}..{n_values[-1]}) while probe load grows ~N^2 — "
            "exactly the Figure-1 economics"
        )
        # feasibility boundary for the paper's budget cap
        feasible = []
        n = 2
        while True:
            try:
                DrsConfig.for_deployment(n, detection_target_s, budget_cap)
                feasible.append(n)
                n += 1
            except ValueError:
                break
        result.add_table(
            "feasibility",
            ["detection target (s)", "budget cap", "largest feasible N"],
            [[detection_target_s, f"{budget_cap:.0%}", feasible[-1] if feasible else 0]],
            caption="DrsConfig.for_deployment boundary (cf. Figure 1 read-off)",
        )
        return result

    return JobPlan(experiment="scaling", seed=seed, jobs=jobs, reduce=reduce)


def run(
    n_values: tuple[int, ...] = (4, 8, 12, 16, 24),
    sweep_period_s: float = 0.5,
    detection_target_s: float = 1.0,
    budget_cap: float = 0.15,
    executor: Any | None = None,
    checkpoint: Any | None = None,
) -> ExperimentResult:
    """Scaling table plus the feasibility boundary."""
    plan = build_plan(
        n_values=n_values,
        sweep_period_s=sweep_period_s,
        detection_target_s=detection_target_s,
        budget_cap=budget_cap,
    )
    return run_plan(plan, executor, checkpoint=checkpoint)
