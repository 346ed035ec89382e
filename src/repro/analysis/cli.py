"""``repro analyze``: the survivability calculator as a command-line tool.

Subcommands wrap the analytic API for operators planning a cluster:

* ``pair N F`` — Equation 1 (optionally with a Monte Carlo check),
* ``allpairs N F`` — whole-cluster survivability,
* ``crossover F`` — smallest N with P[Success] above a threshold,
* ``plan`` — Figure-1 capacity planning (deadline/budget ⇄ cluster size),
* ``availability`` — downtime minutes per year from lifetimes + repair
  latency,
* ``darkpairs N F`` — expected disconnected pairs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import (
    allpairs_success_probability,
    crossover_n,
    expected_dark_pairs,
    max_nodes_within,
    pair_availability,
    simulate_grid,
    success_probability,
    sweep_time_s,
)


def _cmd_pair(args) -> int:
    p = success_probability(args.n, args.f)
    print(f"P[pair survives | N={args.n}, f={args.f}] = {p:.6f}   (Equation 1)")
    if args.mc_precision is not None:
        rng = np.random.default_rng(args.seed)
        est = simulate_grid(args.n, (args.f,), 10_000, rng, target_half_width=args.mc_precision)[args.f]
        print(
            f"Monte Carlo: {est.point:.6f} "
            f"[{est.low:.6f}, {est.high:.6f}] at {est.trials} trials "
            f"({est.confidence:.0%} Wilson)"
        )
    return 0


def _cmd_allpairs(args) -> int:
    p = allpairs_success_probability(args.n, args.f)
    pair = success_probability(args.n, args.f)
    print(f"P[whole cluster connected | N={args.n}, f={args.f}] = {p:.6f}")
    print(f"(pairwise Equation 1 for comparison: {pair:.6f})")
    return 0


def _cmd_crossover(args) -> int:
    n_star = crossover_n(args.f, threshold=args.threshold)
    print(f"P[Success] surpasses {args.threshold} at N = {n_star} for f = {args.f}")
    return 0


def _cmd_plan(args) -> int:
    if args.nodes is not None:
        t = float(sweep_time_s(args.nodes, args.budget, args.bandwidth))
        print(
            f"N={args.nodes} at {args.budget:.0%} of {args.bandwidth / 1e6:.0f} Mb/s: "
            f"full probe sweep every {t:.3f} s"
        )
    else:
        n = max_nodes_within(args.deadline, args.budget, args.bandwidth)
        print(
            f"deadline {args.deadline} s at {args.budget:.0%} of "
            f"{args.bandwidth / 1e6:.0f} Mb/s supports up to N = {n} servers"
        )
    return 0


def _cmd_availability(args) -> int:
    report = pair_availability(args.n, args.mtbf_hours, args.mttr_hours, args.repair_s)
    print(f"N={args.n}, MTBF={args.mtbf_hours} h, MTTR={args.mttr_hours} h, repair={args.repair_s} s")
    print(f"  structural availability: {report.structural_availability:.6f}")
    print(f"  combined availability:   {report.combined_availability:.6f} ({report.nines:.2f} nines)")
    print(f"  downtime:                {report.downtime_minutes_per_year:.1f} minutes/year")
    return 0


def _cmd_darkpairs(args) -> int:
    e = expected_dark_pairs(args.n, args.f)
    total = args.n * (args.n - 1) // 2
    print(f"E[disconnected pairs | N={args.n}, f={args.f}] = {e:.4f} of {total}")
    return 0


def _cmd_report(args) -> int:
    """One-page analytic summary for a cluster configuration."""
    from repro.analysis import allpairs_success_probability as ap
    from repro.viz import render_table

    n = args.n
    rows = []
    for f in (1, 2, 3, 4, 5):
        if f > 2 * n + 2:
            break
        rows.append([f, success_probability(n, f), ap(n, f), expected_dark_pairs(n, f)])
    print(render_table(
        ["f", "P[pair]", "P[whole cluster]", "E[dark pairs]"],
        rows,
        title=f"Survivability, N={n} (Equation 1 + extensions)",
    ))
    print()
    for budget in (0.05, 0.10, 0.15, 0.25):
        t = float(sweep_time_s(n, budget))
        print(f"  probe budget {budget:>4.0%}: full sweep every {t * 1e3:8.2f} ms")
    report = pair_availability(n, args.mtbf_hours, args.mttr_hours, args.repair_s)
    print(
        f"\navailability (MTBF {args.mtbf_hours:.0f} h, MTTR {args.mttr_hours:.0f} h, "
        f"repair {args.repair_s:.1f} s): {report.combined_availability:.6f} "
        f"({report.nines:.2f} nines, {report.downtime_minutes_per_year:.1f} min/yr downtime)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="repro analyze", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="Equation 1 for one (N, f)")
    p.add_argument("n", type=int)
    p.add_argument("f", type=int)
    p.add_argument("--mc-precision", type=float, default=None, help="also run MC to this CI half-width")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("allpairs", help="whole-cluster survivability")
    p.add_argument("n", type=int)
    p.add_argument("f", type=int)
    p.set_defaults(func=_cmd_allpairs)

    p = sub.add_parser("crossover", help="smallest N exceeding a threshold")
    p.add_argument("f", type=int)
    p.add_argument("--threshold", type=float, default=0.99)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("plan", help="Figure-1 capacity planning")
    p.add_argument("--deadline", type=float, default=1.0, help="error-resolution deadline (s)")
    p.add_argument("--budget", type=float, required=True, help="probe bandwidth fraction, e.g. 0.10")
    p.add_argument("--bandwidth", type=float, default=100e6)
    p.add_argument("--nodes", type=int, default=None, help="report sweep time for this N instead")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("availability", help="downtime budget for one configuration")
    p.add_argument("n", type=int)
    p.add_argument("--mtbf-hours", type=float, default=8760.0)
    p.add_argument("--mttr-hours", type=float, default=24.0)
    p.add_argument("--repair-s", type=float, default=1.1)
    p.set_defaults(func=_cmd_availability)

    p = sub.add_parser("darkpairs", help="expected disconnected pairs")
    p.add_argument("n", type=int)
    p.add_argument("f", type=int)
    p.set_defaults(func=_cmd_darkpairs)

    p = sub.add_parser("report", help="one-page analytic summary for a cluster size")
    p.add_argument("n", type=int)
    p.add_argument("--mtbf-hours", type=float, default=8760.0)
    p.add_argument("--mttr-hours", type=float, default=24.0)
    p.add_argument("--repair-s", type=float, default=1.1)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
