"""The count rows of ``metrics.jsonl`` for six small DES runs.

``data/des_metric_rows.json`` holds what this module's :func:`metric_rows`
returned at the commit *before* component counters were built on their
registry totals (``PYTHONPATH=src python tests/obs/metric_rows.py`` prints
it).  It is the contract "``metrics.jsonl`` counts what it counted" — never
re-record it to make a change pass.

Per run: every ``snapshot()`` row except the five wall-clock-derived names,
reduced to the fields a count can move (name, kind, labels, ``value``,
``events``, histogram ``count`` / ``sum`` / ``buckets``).  The runs are the
four shipped scenarios through ``run_scenario`` and two ``one_replicate``
calls, each under a fresh core registry with simulator profiling installed,
so ``sim_events_total`` (whole and by category) is pinned too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.experiments.desvalidation import one_replicate
from repro.obs import MetricsRegistry, ensure_core_metrics, use_registry
from repro.obs.profiler import install_profiling, profiling_installed, uninstall_profiling
from repro.scenario import load_scenario, run_scenario

SCENARIOS = Path(__file__).parents[2] / "examples" / "scenarios"
#: (n, f) of the two replicates, each drawn from ``default_rng(7)``
REPLICATES = ((8, 2), (12, 4))
WALL_CLOCK = frozenset(
    {
        "sim_callback_seconds_total",
        "sim_run_seconds_total",
        "sim_events_per_second",
        "mc_wall_seconds_total",
        "mc_iterations_per_second",
    }
)
FIELDS = ("name", "kind", "labels", "value", "events", "count", "sum", "buckets")


def count_rows(registry: MetricsRegistry) -> list[dict]:
    """The registry's snapshot without wall-clock rows and derived fields."""
    return [
        {k: row[k] for k in FIELDS if k in row}
        for row in registry.snapshot()
        if row["name"] not in WALL_CLOCK
    ]


def metric_rows() -> dict[str, list[dict]]:
    """Run name -> count rows, for the four scenarios and the two replicates."""
    was_installed = profiling_installed()
    install_profiling()
    try:
        out = {}
        for path in sorted(SCENARIOS.glob("*.json")):
            registry = ensure_core_metrics(MetricsRegistry())
            run_scenario(load_scenario(path), metrics=registry)
            out[f"scenario/{path.stem}"] = count_rows(registry)
        for n, f in REPLICATES:
            registry = ensure_core_metrics(MetricsRegistry())
            with use_registry(registry):
                one_replicate(n, f, np.random.default_rng(7))
            out[f"one_replicate/n={n}/f={f}"] = count_rows(registry)
        return out
    finally:
        if not was_installed:
            uninstall_profiling()


if __name__ == "__main__":
    json.dump(metric_rows(), sys.stdout, indent=1)
    print()
