"""TAB-MOTIV — the paper's field-study motivation statistic.

"We evaluated one hundred deployed systems and found that over a one-year
period, thirteen percent of the hardware failures were network related."

The statistic is recomputed from the synthetic fleet log (the original is
proprietary; DESIGN.md §3 records the substitution).
"""

from __future__ import annotations

import numpy as np

from repro.cluster import FailureLogConfig, category_breakdown, generate_failure_log, network_fraction
from repro.experiments.base import ExperimentResult


def run(fleet_years: int = 20, seed: int = 1999) -> ExperimentResult:
    """Generate ``fleet_years`` 100-server years and report the shares."""
    rng = np.random.default_rng(seed)
    config = FailureLogConfig(servers=100, duration_days=365.0 * fleet_years)
    events = generate_failure_log(config, rng)
    result = ExperimentResult("motivation")
    breakdown = category_breakdown(events)
    result.add_table(
        "categories",
        ["category", "share", "network-related"],
        [[c, share, c in ("nic", "hub", "cable")] for c, share in breakdown.items()],
        caption=f"Hardware failure mix over {fleet_years} fleet-years ({len(events)} events)",
    )
    fraction = network_fraction(events)
    result.add_table(
        "headline",
        ["metric", "measured", "paper"],
        [["network-related share of hardware failures", fraction, 0.13]],
        caption="Paper's motivation statistic",
    )
    # single-year variance: what one year of observation (the paper's window)
    # could plausibly report
    single_years = []
    for year in range(min(fleet_years, 10)):
        year_events = [e for e in events if 365 * year < e.time_days <= 365 * (year + 1)]
        if year_events:
            single_years.append(network_fraction(year_events))
    if single_years:
        result.note(
            f"single-year network share ranges {min(single_years):.3f}..{max(single_years):.3f} "
            f"across {len(single_years)} observation years (paper observed 0.13 in one year)"
        )
    return result
