#!/usr/bin/env python
"""Survivability analysis: Equation 1, its Monte Carlo validation, and
capacity planning with the paper's probability model.

Reproduces the paper's analytic story at the API level:

1. P[Success](N, f) curves for several failure counts (Figure 2),
2. the 0.99 crossover sizes the paper quotes (18 / 32 / 45),
3. Monte Carlo agreement with the closed form (Figure 3's point),
4. a planning question: how many servers does a target availability need?

Run:  python examples/survivability_analysis.py
"""

import numpy as np

from repro import crossover_n, success_curve, success_probability
from repro.analysis import simulate_grid
from repro.viz import line_chart, render_table


def main() -> None:
    # 1. Figure-2 style curves
    curves = {}
    for f in (2, 4, 6, 8, 10):
        ns, ps = success_curve(f, n_max=63)
        curves[f"f={f}"] = (ns, ps)
    print(line_chart(curves, title="P[Success] vs cluster size (Equation 1)",
                     x_label="nodes", y_label="P[Success]", height=16))

    # 2. the paper's crossover table
    rows = [[f, crossover_n(f)] for f in range(2, 8)]
    print()
    print(render_table(["simultaneous failures f", "N where P[S] > 0.99"], rows,
                       title="0.99 crossovers (paper: 18 / 32 / 45 for f=2/3/4)"))

    # 3. Monte Carlo validation of a few points
    rng = np.random.default_rng(0)
    print()
    check_rows = []
    for n, f in [(18, 2), (32, 3), (45, 4)]:
        estimate = simulate_grid(n, (f,), 200_000, rng)[f]  # a point is a one-cell grid
        exact = success_probability(n, f)
        check_rows.append([n, f, exact, estimate, abs(exact - estimate)])
    print(render_table(["N", "f", "Equation 1", "Monte Carlo (200k)", "|diff|"], check_rows,
                       title="Simulation vs equation (Figure 3's agreement)"))

    # 4. capacity planning: smallest cluster surviving f=3 at three 9s
    n_needed = crossover_n(3, threshold=0.999)
    print(f"\nplanning: to keep P[pair survives 3 simultaneous failures] > 99.9%, "
          f"deploy at least N={n_needed} servers")


if __name__ == "__main__":
    main()
