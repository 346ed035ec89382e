"""TOPO — figure2-style survivability grids over the topology catalog.

The generalization ROADMAP item 2 asks for: the same P[Success]-vs-size
story as Figure 2, but over *any* family in
:mod:`repro.topology.builders` — the paper's dual-hub cluster (whose fast
path replays the specialized kernel's exact streams), k-hub clusters,
two- and three-level fat trees, and multi-cluster WAN interconnects.

The decomposition mirrors :mod:`~repro.experiments.figure2`: one engine
job per (topology spec, size) runs the common-random-numbers sweep kernel
(:func:`repro.analysis.topokernel.simulate_topology_grid`) over the whole
f-grid in a single sampling pass, with each job's stream spawned from
``(seed, "topologysweep", job name)`` — so ``--jobs N``, checkpoint
resume, and any subset of the grid reproduce the full run bit for bit.
Manifests record each family's :meth:`~repro.topology.model.Topology.describe`
block, and every precision cell carries the topology name for ``repro obs
precision``/``watch``.
"""

from __future__ import annotations

from math import comb
from typing import Any

import numpy as np

from repro.analysis import exact_topology_success, simulate_topology_grid
from repro.engine import Job, JobPlan, cell_point
from repro.experiments.base import (
    CI_CONFIDENCE,
    ExperimentResult,
    add_precision_artifacts,
    collect_precision_cells,
)
from repro.topology import build_topology, parse_topology_spec

#: one spec per shipped family — the end-to-end default sweep
DEFAULT_TOPOLOGIES = ("dual-hub", "khub:hubs=3", "fattree2", "fattree3", "multicluster")
F_VALUES = tuple(range(1, 9))
SIZES = (4, 6, 8, 12, 16)

#: exhaustive-enumeration budget for the exact overlay (beyond it the
#: overlay is skipped for that cell rather than stalling the reduction)
EXACT_BUDGET = 200_000


def _topo_grid(params: dict[str, Any], seed_seq: np.random.SeedSequence) -> dict[str, Any]:
    """Engine job: the CRN f-grid for one (topology spec, size) point.

    Returns string-keyed rows exactly like figure2's ``_mc_curve`` —
    floats for fixed-count runs, :meth:`CellPrecision.to_row` dicts (with
    the topology name) under ``target_ci`` — so the checkpoint codec and
    the shared precision tooling apply unchanged.
    """
    topology = build_topology(params["spec"], size=params["size"])
    target = params.get("target_ci")
    cells = simulate_topology_grid(
        topology,
        tuple(f for f in params["fs"] if f <= topology.width),
        params["iterations"],
        np.random.default_rng(seed_seq),
        target_half_width=target,
        method=params.get("method", "crn"),
    )
    if target is None:
        return {str(f): p for f, p in cells.items()}
    return {str(f): cell.to_row() for f, cell in cells.items()}


def build_plan(
    topologies: tuple[str, ...] = DEFAULT_TOPOLOGIES,
    sizes: tuple[int, ...] = SIZES,
    f_values: tuple[int, ...] = F_VALUES,
    mc_iterations: int = 20_000,
    seed: int = 2100,
    target_ci: float | None = None,
    mc_method: str = "crn",
) -> JobPlan:
    """Survivability grid per topology family: one sweep job per (topology spec, size).

    Every entry of ``topologies`` (spec strings such as ``"khub:hubs=3"``;
    the CLI's ``--topology`` passes one) is checked before any job runs.
    ``target_ci`` switches every cell to adaptive interval-targeted
    stopping, exactly as in figure2.  ``mc_method="stratified"`` uses
    hub/spine/core-state stratification on families that declare strata
    (``"stratified-cv"`` additionally needs the dual-hub closed-form
    control variate).
    """
    for spec in topologies:
        parse_topology_spec(spec)  # fail before any job runs, with the catalog
    jobs = []
    for spec in topologies:
        for size in sizes:
            params: dict[str, Any] = {
                "spec": spec,
                "size": size,
                "fs": list(f_values),
                "iterations": mc_iterations,
            }
            if target_ci is not None:
                params["target_ci"] = target_ci
            if mc_method != "crn":
                params["method"] = mc_method
            jobs.append(Job(name=f"mc/{spec}/size={size}", fn=_topo_grid, params=params))

    def reduce(values: dict[str, Any]) -> ExperimentResult:
        result = ExperimentResult("topologysweep")
        built = {
            (spec, size): build_topology(spec, size=size) for spec in topologies for size in sizes
        }
        described = {spec: built[spec, sizes[-1]].describe() for spec in topologies}
        result.meta = {
            "seed": seed,
            "topologies": described,
            "sizes": list(sizes),
            "f_values": list(f_values),
            "mc_iterations": mc_iterations,
            "mc_method": mc_method,
        }
        if target_ci is not None:
            result.meta["target_ci"] = target_ci
            result.meta["ci_confidence"] = CI_CONFIDENCE
        xs = list(sizes)
        for spec in topologies:
            curves = {
                f"f={f}": (
                    xs,
                    [cell_point(values, f"mc/{spec}/size={size}", str(f)) for size in sizes],
                )
                for f in f_values
            }
            result.add_series(
                f"mc_{spec.replace(':', '_').replace(',', '_').replace('=', '')}",
                curves,
                caption=f"P[Success] vs size: {spec} ({mc_iterations} iterations/point)"
                if target_ci is None
                else f"P[Success] vs size: {spec} (adaptive to ±{target_ci:g})",
                x_label="size",
                y_label="P[Success]",
            )
        # exact anchors where a closed form or a small enumeration exists:
        # the generic-vs-exact agreement the acceptance criteria pin down
        rows = []
        for (spec, size), topology in built.items():
            for f in f_values:
                if f > topology.width:
                    continue
                if topology.exact_fn is None and comb(topology.width, f) > EXACT_BUDGET:
                    continue  # universe too large to enumerate: no overlay for this cell
                mc = cell_point(values, f"mc/{spec}/size={size}", str(f))
                exact_p = exact_topology_success(topology, f, max_combinations=EXACT_BUDGET)
                rows.append([spec, size, f, exact_p, mc, abs(mc - exact_p)])
        if rows:
            result.add_table(
                "exact_check",
                ["topology", "size", "f", "exact", "montecarlo", "abs_error"],
                rows,
                caption="Generic kernel vs exact survivability (closed form or enumeration)",
            )
        result.add_table(
            "families",
            ["topology", "family", "vertices", "width", "terminals", "predicate"],
            [
                [spec, d["family"], d["vertices"], d["width"], d["terminals"], d["predicate"]]
                for spec, d in described.items()
            ],
            caption=f"Topology catalog at size={sizes[-1]}",
        )
        cells = []
        for spec in topologies:
            cells.extend(collect_precision_cells(values, prefix=f"mc/{spec}/size="))
        add_precision_artifacts(result, cells, target_ci)
        return result

    return JobPlan(
        experiment="topologysweep",
        seed=seed,
        jobs=jobs,
        reduce=reduce,
        meta={
            "total_trials": sum(j.params.get("iterations", 0) for j in jobs),
            "topology": ",".join(topologies),
        },
    )
