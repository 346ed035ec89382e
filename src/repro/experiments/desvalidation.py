"""EXP-DESVAL — the protocol implementation matches the probability model.

Equation 1 and the Monte Carlo of Figure 3 evaluate an *abstract* predicate
("some DRS route exists").  This experiment closes the loop against the
*implemented* protocol: inject exactly-f uniform component failures into a
live DES cluster running real DRS daemons, let them repair, then test pair
reachability with a routed ping.  The empirical success rate over many
replicates should match Equation 1 within binomial noise — demonstrating
that the deployed-protocol behaviour and the paper's model agree.

Replicates are independent simulations, so both drivers decompose into one
engine job per replicate, each with a spawned seed keyed by
``(n, f, replicate index)`` — deterministic for a given root seed on any
executor backend and worker count.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

import numpy as np

from repro.analysis import success_probability
from repro.drs import DrsConfig
from repro.engine import Job, JobPlan, run_plan
from repro.experiments.base import ExperimentResult
from repro.obs.progress import heartbeat
from repro.scenario.run import run_scenario
from repro.scenario.spec import ScenarioSpec, Warmup

#: Fast timings so each replicate settles in ~2 simulated seconds.
VALIDATION_CONFIG = DrsConfig(
    sweep_period_s=0.1,
    probe_timeout_s=0.01,
    probe_retries=2,
    discovery_timeout_s=0.02,
    path_check_period_s=0.25,
)
_VALIDATION_OPTIONS = asdict(VALIDATION_CONFIG)


def one_replicate(n: int, f: int, rng: Any, settle_s: float = 2.0) -> bool:
    """One trial: build, warm up, fail f components, settle, ping 0 -> 1.

    The f are drawn from ``rng``, or from anything ``np.random.default_rng`` takes.
    """
    warmup = Warmup(1.0, fail_exactly=f)  # and no trace, to keep replicates cheap
    spec = ScenarioSpec(
        "desval", n, 1.0 + settle_s, "drs", _VALIDATION_OPTIONS, seed=rng, warmup=warmup, ping=True, trace=False
    )
    return run_scenario(spec).ping_ok


def _replicate_job(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> bool:
    """Engine job: one live-DES replicate at (n, f)."""
    outcome = one_replicate(params["n"], params["f"], seed_seq)
    hb = heartbeat()
    if hb is not None:
        hb.add(1, **({} if outcome else {"pair_down": 1}))
    return outcome


def _replicate_jobs(pairs: list[tuple[int, int]], replicates: int) -> list[Job]:
    """One job per (n, f, replicate index)."""
    return [
        Job(name=f"rep/n={n}/f={f}/i={i}", fn=_replicate_job, params={"n": n, "f": f})
        for n, f in pairs
        for i in range(replicates)
    ]


def _success_rate(values: dict[str, Any], n: int, f: int, replicates: int) -> float:
    # quarantined replicates are absent; the rate uses whichever completed
    present = [values[k] for i in range(replicates) if (k := f"rep/n={n}/f={f}/i={i}") in values]
    if not present:
        return float("nan")
    return sum(bool(v) for v in present) / len(present)


def build_curve_plan(
    f: int = 2,
    n_values: tuple[int, ...] = (4, 6, 8, 10, 12),
    replicates: int = 100,
    seed: int = 2024,
) -> JobPlan:
    """Replicate jobs for the live-protocol survivability curve at fixed f."""
    jobs = _replicate_jobs([(n, f) for n in n_values], replicates)

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("desvalidation_curve")
        result.meta = {"seed": seed, "f": f, "n_values": list(n_values), "replicates": replicates}
        ns = list(n_values)
        measured = [_success_rate(values, n, f, replicates) for n in ns]
        analytic = [success_probability(n, f) for n in ns]
        result.add_series(
            "curve",
            {"Equation 1": (ns, analytic), "DES (live DRS)": (ns, measured)},
            caption=f"Live-protocol Figure 2 slice: P[Success] vs N at f={f}",
            x_label="nodes",
            y_label="P[Success]",
        )
        rows = [
            [n, m, a, m - a, 2 * float(np.sqrt(max(a * (1 - a), 1e-9) / replicates))]
            for n, m, a in zip(ns, measured, analytic)
        ]
        result.add_table(
            "curve_points",
            ["N", "DES measured", "Equation 1", "difference", "2-sigma binomial"],
            rows,
            caption=f"{replicates} replicates per point",
        )
        worst = max(abs(r[3]) for r in rows)
        result.note(f"worst |DES - Equation 1| along the curve: {worst:.4f}")
        return result

    return JobPlan(experiment="desvalidation_curve", seed=seed, jobs=jobs, reduce=reduce)


def run_curve(
    f: int = 2,
    n_values: tuple[int, ...] = (4, 6, 8, 10, 12),
    replicates: int = 100,
    seed: int = 2024,
    executor: Any | None = None,
    checkpoint: Any | None = None,
) -> ExperimentResult:
    """A live-protocol Figure 2: DES survivability vs N at fixed f.

    The paper's Figure 2 plots Equation 1; this sweeps the *implemented*
    protocol over cluster sizes and overlays both — the strongest form of
    the model-vs-system agreement claim.
    """
    plan = build_curve_plan(f=f, n_values=n_values, replicates=replicates, seed=seed)
    return run_plan(plan, executor, checkpoint=checkpoint)


def build_plan(
    n: int = 8,
    f_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    replicates: int = 120,
    seed: int = 2000,
) -> JobPlan:
    """Replicate jobs for the empirical-vs-analytic table at one cluster size."""
    jobs = _replicate_jobs([(n, f) for f in f_values], replicates)

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("desvalidation")
        result.meta = {"seed": seed, "n": n, "f_values": list(f_values), "replicates": replicates}
        rows = []
        for f in f_values:
            measured = _success_rate(values, n, f, replicates)
            expected = success_probability(n, f)
            stderr = float(np.sqrt(max(expected * (1 - expected), 1e-9) / replicates))
            rows.append([n, f, replicates, measured, expected, measured - expected, 2 * stderr])
        result.add_table(
            "validation",
            ["N", "f", "replicates", "DES measured", "Equation 1", "difference", "2-sigma binomial"],
            rows,
            caption="Live-protocol survivability vs the analytic model",
        )
        worst = max(abs(r[5]) for r in rows)
        result.note(f"worst |DES - Equation 1| = {worst:.4f} over {len(rows)} (N,f) points")
        return result

    return JobPlan(experiment="desvalidation", seed=seed, jobs=jobs, reduce=reduce)


def run(
    n: int = 8,
    f_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    replicates: int = 120,
    seed: int = 2000,
    executor: Any | None = None,
    checkpoint: Any | None = None,
) -> ExperimentResult:
    """Empirical-vs-analytic comparison table for one cluster size."""
    plan = build_plan(n=n, f_values=f_values, replicates=replicates, seed=seed)
    return run_plan(plan, executor, checkpoint=checkpoint)
