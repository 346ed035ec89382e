"""Statistical observability: per-cell precision of Monte Carlo estimates.

A finished sweep used to report point values with no visibility into *how
good* each (N, f) cell's estimate is: CI widths, trial spend, and
convergence behavior were invisible, and iteration counts were fixed
guesses.  This module makes estimator quality a first-class, recorded, and
steerable signal:

* :class:`CellPrecision` — one (N, f) cell's quality record: successes,
  trials, the Wilson interval at a configurable confidence, its
  half-width, throughput, and whether it met its target.
* :class:`PrecisionGrid` — one sweep round's records as columns: every
  open group's whole f-grid, what the sweep loop's grid builders return.
* ``stats.grid`` flight events — the Monte Carlo estimators
  (:func:`repro.analysis.montecarlo.simulate_grid` and every other grid)
  publish one event per sweep round through the engine flight recorder
  (:meth:`PrecisionGrid.publish`, straight from the columns), and
  :func:`cells_from_event` expands one back into its cells, so ``repro obs
  watch`` gains a live precision panel and the Perfetto export gains a
  CI-width counter track.
* Sweep-quality reports — :func:`fold_cells` reduces a flight stream (or
  manifest summary) to the latest state per cell, and
  :func:`precision_report` / :func:`render_precision_report` turn that
  into the ``repro obs precision`` verb's output: worst cells, per-f
  target attainment, and trials saved versus a fixed-count run.

Trials accounting assumes the common-random-numbers sweep kernel: every
cell at one N shares a single sampling pass, so a row's sampling cost is
the *maximum* trial count over its cells, not the sum (see
docs/model.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from repro.analysis.stats import _z_for
from repro.obs.flightrecorder import FLIGHT_SCHEMA_VERSION, flight_recorder

#: flight-event kind carrying one grid's precision snapshot, its cells as columns
STATS_GRID_KIND = "stats.grid"
#: the labels every cell of a ``stats.grid`` event shares (absent when unset)
GRID_LABELS = ("trials", "confidence", "target", "topology", "method")
#: its columns, entry ``i`` of each belonging to the cell at ``(n[i], f[i])``
GRID_COLUMNS = ("n", "f", "successes", "point", "half_width", "done", "met", "std_error")
#: flight schema 1 carried each cell in an event of its own, of this kind
SCHEMA_1_CELL_KIND = "stats.cell"
#: the kinds :func:`cells_from_event` reads (the schema-1 one only to refuse it)
CELL_KINDS = frozenset({STATS_GRID_KIND, SCHEMA_1_CELL_KIND})


@dataclass(frozen=True)
class CellPrecision:
    """Precision record for one (N, f) Monte Carlo cell.

    ``target_half_width`` is the adaptive-stopping goal the cell ran
    under (``None`` for fixed-count runs); ``elapsed_s`` is the sampling
    wall time attributed to the cell's row so far.  ``topology`` names the
    topology the cell was estimated over (``None`` for the classic
    dual-hub estimators, which predate the field — every consumer treats
    the two identically).  ``method`` names the estimator the interval
    came from: ``"wilson"`` (a plain binomial proportion — the default,
    and what every record before the variance-reduced estimators carried
    implicitly) or a stratified method (``"stratified"``,
    ``"stratified-cv"``), where ``low``/``high`` are the combined
    stratified interval and ``successes``/``trials`` record the sampled
    stratum's raw counts; ``std_error`` then carries the implied
    normal-approximation standard error.
    """

    n: int
    f: int
    successes: int
    trials: int
    confidence: float
    point: float
    low: float
    high: float
    target_half_width: float | None = None
    elapsed_s: float = 0.0
    topology: str | None = None
    method: str = "wilson"
    std_error: float | None = None

    # --------------------------------------------------------------- derived
    @property
    def half_width(self) -> float:
        """Half the Wilson interval width — the precision actually achieved."""
        return (self.high - self.low) / 2.0

    @property
    def trials_per_second(self) -> float:
        """Sampling throughput attributed to this cell's row."""
        return self.trials / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def met_target(self) -> bool:
        """Whether the achieved half-width is at or below the target."""
        return self.target_half_width is not None and self.half_width <= self.target_half_width

    # ------------------------------------------------------------- transport
    def to_row(self) -> dict[str, Any]:
        """JSON-round-trippable form (checkpoint codec / manifest payload)."""
        row: dict[str, Any] = {
            "p": self.point,
            "low": self.low,
            "high": self.high,
            "successes": self.successes,
            "trials": self.trials,
            "confidence": self.confidence,
        }
        if self.target_half_width is not None:
            row["target"] = self.target_half_width
            row["met"] = self.met_target
        if self.topology is not None:
            row["topology"] = self.topology
        if self.method != "wilson":
            row["method"] = self.method
        if self.std_error is not None:
            row["std_error"] = self.std_error
        return row


@dataclass(frozen=True)
class PrecisionGrid:
    """One sweep round's precision cells, as columns.

    What a grid builder of the sweep loop returns once per round: the
    whole f-grid of every group still open, group after group, entry ``i``
    of every column being the cell at ``(ns[i], fs[i])``.  ``successes``,
    ``point``, ``low``, ``high`` and ``std_error`` (stratified methods only)
    are NumPy columns; the rest are the labels every cell shares (a round's
    groups have all drawn the same trials), with the meanings
    :class:`CellPrecision` gives them.  :meth:`publish` emits one
    ``stats.grid`` event straight from the columns, and :meth:`cell` builds
    one :class:`CellPrecision` only where a caller keeps one.
    """

    ns: tuple[int, ...]
    fs: tuple[int, ...]
    successes: np.ndarray
    trials: int
    confidence: float
    point: np.ndarray
    low: np.ndarray
    high: np.ndarray
    target_half_width: float | None = None
    elapsed_s: float = 0.0
    topology: str | None = None
    method: str = "wilson"
    std_error: np.ndarray | None = None

    @classmethod
    def from_stratified(
        cls,
        ns: tuple[int, ...],
        fs: tuple[int, ...],
        successes: np.ndarray,
        trials: int,
        point: np.ndarray,
        half_width: np.ndarray,
        confidence: float = 0.95,
        target_half_width: float | None = None,
        elapsed_s: float = 0.0,
        topology: str | None = None,
        method: str = "stratified",
    ) -> "PrecisionGrid":
        """Cells from a stratified / control-variate estimate.

        ``point`` and ``half_width`` come from the stratified combination
        (exact strata plus the scaled sampled-stratum interval — see
        docs/model.md §11), not from a Wilson interval over
        ``successes``/``trials``; those still record the sampled stratum's
        raw counts so trials accounting keeps working.  The interval is
        clipped to [0, 1] — a no-op for the dual-hub estimators, whose
        combined interval sits inside the unit interval by construction —
        and ``std_error`` back-solves the implied normal standard error so
        downstream variance accounting is method-agnostic.
        """
        return cls(
            ns, fs, successes, trials, confidence, point,
            np.maximum(0.0, point - half_width), np.minimum(1.0, point + half_width),
            target_half_width, elapsed_s, topology, method,
            half_width / _z_for(confidence),
        )

    @property
    def half_width(self) -> np.ndarray:
        """Half of each Wilson interval's width (:attr:`CellPrecision.half_width`)."""
        return (self.high - self.low) / 2.0

    @property
    def met_target(self) -> np.ndarray:
        """Per cell: is the achieved half-width at or below the target?"""
        if self.target_half_width is None:
            return np.zeros(len(self.fs), dtype=bool)
        return self.half_width <= self.target_half_width

    def cell(self, i: int) -> CellPrecision:
        """The :class:`CellPrecision` record of entry ``i``."""
        return CellPrecision(
            n=self.ns[i],
            f=self.fs[i],
            successes=int(self.successes[i]),
            trials=self.trials,
            confidence=self.confidence,
            point=float(self.point[i]),
            low=float(self.low[i]),
            high=float(self.high[i]),
            target_half_width=self.target_half_width,
            elapsed_s=self.elapsed_s,
            topology=self.topology,
            method=self.method,
            std_error=None if self.std_error is None else float(self.std_error[i]),
        )

    def publish(self, cells: Iterable[tuple[int, bool]]) -> None:
        """Emit one ``stats.grid`` event of the ``(entry, done)`` pairs, in order.

        The :data:`GRID_LABELS` go in once, ``target`` only when adaptive,
        ``topology`` when labelled and ``method`` when not ``"wilson"``;
        each of the :data:`GRID_COLUMNS` holds one value per pair — ``met``
        only when adaptive, ``std_error`` only for stratified methods.
        ``point`` and ``half_width`` are rounded to 8 places, ``std_error``
        to 10.  A no-op (one global lookup) when no flight recorder is
        installed, and no event when there are no pairs.
        """
        recorder = flight_recorder()
        if recorder is None:
            return
        pairs = list(cells)
        if not pairs:
            return
        entries = [i for i, _ in pairs]
        fields: dict[str, Any] = {"trials": self.trials, "confidence": self.confidence}
        if self.target_half_width is not None:
            fields["target"] = self.target_half_width
        if self.topology is not None:
            fields["topology"] = self.topology
        if self.method != "wilson":
            fields["method"] = self.method
        successes, point = self.successes.tolist(), self.point.tolist()
        half_width = self.half_width.tolist()
        fields["n"] = [self.ns[i] for i in entries]
        fields["f"] = [self.fs[i] for i in entries]
        fields["successes"] = [successes[i] for i in entries]
        fields["point"] = [round(point[i], 8) for i in entries]
        fields["half_width"] = [round(half_width[i], 8) for i in entries]
        fields["done"] = [done for _, done in pairs]
        if self.target_half_width is not None:
            met = self.met_target.tolist()
            fields["met"] = [met[i] for i in entries]
        if self.std_error is not None:
            std_error = self.std_error.tolist()
            fields["std_error"] = [round(std_error[i], 10) for i in entries]
        recorder.emit(STATS_GRID_KIND, **fields)


# ----------------------------------------------------------------- reduction
def grid_payloads(event: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The cells of one ``stats.grid`` event — the one place it is expanded.

    Entry ``i``'s payload is the event's labels plus entry ``i`` of each of
    its columns: one cell's snapshot, with exactly the keys and values that
    flight schema 1 carried in an event of its own per cell.  An event of
    an older schema is refused by name (``ValueError``) rather than read
    wrongly: a schema-1 cell event, and a schema-2 ``stats.grid`` event,
    whose scalar ``n`` labelled one group's cells.
    """
    if event.get("kind") == SCHEMA_1_CELL_KIND:
        raise ValueError(
            f"a {SCHEMA_1_CELL_KIND!r} event is flight schema 1; this reader takes schema "
            f"{FLIGHT_SCHEMA_VERSION}, whose cells ride in {STATS_GRID_KIND!r} events"
        )
    if not isinstance(event.get("n", []), list):
        raise ValueError(
            f"a {STATS_GRID_KIND!r} event with a scalar 'n' is flight schema 2; this reader "
            f"takes schema {FLIGHT_SCHEMA_VERSION}, whose {STATS_GRID_KIND!r} events carry "
            f"one 'n' per cell"
        )
    labels = {key: event[key] for key in GRID_LABELS if key in event}
    columns = [key for key in GRID_COLUMNS if key in event]
    return [
        {**labels, **dict(zip(columns, entry))}
        for entry in zip(*(event[key] for key in columns))
    ]


def cells_from_event(event: Mapping[str, Any]) -> list[tuple[tuple, dict[str, Any]]]:
    """``(key, row)`` per cell of one ``stats.grid`` event, in entry order.

    Cells are keyed ``(n, f)`` for legacy (topology-less) grids and
    ``(topology, n, f)`` when the grid carries a topology label, so one
    multi-topology sweep can share a stream without same-(n, f) cells
    clobbering each other.  A row is a cell's :func:`grid_payloads`
    payload, defaulted and typed; the watch panel, :func:`fold_cells` and
    the Perfetto "ci half-width" counter all read it.
    """
    cells = []
    for cell in grid_payloads(event):
        n, f = int(cell.get("n", -1)), int(cell.get("f", -1))
        topology = cell.get("topology")
        row = {
            "n": n,
            "f": f,
            "topology": topology,
            "successes": int(cell.get("successes", 0)),
            "trials": int(cell.get("trials", 0)),
            "confidence": float(cell.get("confidence", 0.95)),
            "point": float(cell.get("point", 0.0)),
            "half_width": float(cell.get("half_width", 0.0)),
            "target": cell.get("target"),
            "met": bool(cell.get("met", False)),
            "done": bool(cell.get("done", False)),
            "method": str(cell.get("method", "wilson")),
        }
        cells.append((((n, f) if topology is None else (str(topology), n, f)), row))
    return cells


def fold_cells(events: Iterable[Mapping[str, Any]]) -> dict[tuple, dict[str, Any]]:
    """Latest state per cell from a flight stream's ``stats.grid`` events.

    Batch-progress snapshots of one cell supersede each other; the returned
    dict holds each cell's most recent snapshot (the ``done`` one, for a
    completed run), keyed as :func:`cells_from_event` keys it.  Other
    kinds are ignored, so the whole stream can be passed as-is; a schema-1
    stream raises :func:`grid_payloads`' ``ValueError``.
    """
    return dict(
        cell
        for event in events
        if event.get("kind") in CELL_KINDS
        for cell in cells_from_event(event)
    )


def cells_from_manifest(manifest: Mapping[str, Any]) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Per-cell rows plus the summary block recorded in a run manifest.

    Experiments running with a CI target fold a ``precision`` section into
    their result meta, which the runner copies into the manifest config;
    this digs it out of either a raw manifest dict or a
    :meth:`~repro.obs.artifacts.RunManifest.to_dict` payload.
    """
    config = manifest.get("config")
    section = None
    if isinstance(config, Mapping):
        section = config.get("precision")
    if section is None:
        section = manifest.get("precision")
    if not isinstance(section, Mapping):
        return [], {}
    cells = [dict(cell) for cell in section.get("cells", [])]
    summary = {k: v for k, v in section.items() if k != "cells"}
    return cells, summary


def precision_report(
    cells: Iterable[Mapping[str, Any]],
    target: float | None = None,
    top: int = 10,
) -> dict[str, Any]:
    """Sweep-quality report over per-cell precision rows.

    ``cells`` rows need ``n``, ``f``, ``trials``, and ``half_width`` (the
    shapes produced by :func:`fold_cells` and :func:`cells_from_manifest`
    both qualify); ``target`` overrides the per-cell recorded target when
    given.  The fixed-count baseline is the run every cell would need at a
    single shared iteration count to match the worst cell's precision:
    (number of N rows) × (largest per-row trial count).  Under the CRN
    kernel a row's sampling cost is the max over its cells, so
    ``total_trials`` sums per-row maxima — not per-cell trials, which
    would double-count shared draws.
    """
    rows = [dict(c) for c in cells]
    if target is None:
        targets = {c.get("target") for c in rows if c.get("target") is not None}
        target = max(targets) if targets else None
    for c in rows:
        if target is not None:
            c["met"] = c.get("half_width", float("inf")) <= target
    # a CRN "row" is one sampling pass: one N per topology (legacy rows
    # carry no topology and fold into the None group, as before)
    by_n: dict[tuple, int] = {}
    for c in rows:
        n = (c.get("topology"), int(c.get("n", -1)))
        by_n[n] = max(by_n.get(n, 0), int(c.get("trials", 0)))
    total_trials = sum(by_n.values())
    fixed_trials = len(by_n) * max(by_n.values(), default=0)
    saved = fixed_trials - total_trials
    worst = sorted(rows, key=lambda c: -float(c.get("half_width", 0.0)))
    per_f: dict[int, dict[str, Any]] = {}
    for c in sorted(rows, key=lambda c: (int(c.get("f", -1)), int(c.get("n", -1)))):
        f = int(c.get("f", -1))
        stats = per_f.setdefault(
            f, {"f": f, "cells": 0, "met": 0, "worst_half_width": 0.0, "trials": 0}
        )
        stats["cells"] += 1
        stats["met"] += bool(c.get("met", False))
        stats["worst_half_width"] = max(stats["worst_half_width"], float(c.get("half_width", 0.0)))
        stats["trials"] += int(c.get("trials", 0))
    return {
        "cells": len(rows),
        "met_target": sum(bool(c.get("met", False)) for c in rows),
        "target_half_width": target,
        "worst_half_width": float(worst[0]["half_width"]) if worst else 0.0,
        "worst_cells": [
            {
                "n": int(c.get("n", -1)),
                "f": int(c.get("f", -1)),
                "topology": c.get("topology"),
                "point": float(c.get("point", 0.0)),
                "half_width": float(c.get("half_width", 0.0)),
                "trials": int(c.get("trials", 0)),
                "met": bool(c.get("met", False)),
            }
            for c in worst[: max(0, top)]
        ],
        "per_f": [per_f[f] for f in sorted(per_f)],
        "total_trials": total_trials,
        "fixed_equivalent_trials": fixed_trials,
        "trials_saved": saved,
        "trials_saved_fraction": saved / fixed_trials if fixed_trials else 0.0,
        "rows": len(by_n),
    }


def render_precision_report(report: Mapping[str, Any], source: str = "") -> str:
    """Pretty tables for one :func:`precision_report` payload."""
    from repro.viz import render_table

    target = report.get("target_half_width")
    title = f"sweep quality: {source}" if source else "sweep quality"
    summary_rows = [
        ["cells", report.get("cells", 0)],
        ["at target", f"{report.get('met_target', 0)}/{report.get('cells', 0)}"
         if target is not None else "-"],
        ["target half-width", f"{target:.6g}" if target is not None else "-"],
        ["worst half-width", f"{report.get('worst_half_width', 0.0):.6g}"],
        ["total trials", f"{report.get('total_trials', 0):,}"],
        ["fixed-count equivalent", f"{report.get('fixed_equivalent_trials', 0):,}"],
        ["trials saved", f"{report.get('trials_saved', 0):,} "
         f"({report.get('trials_saved_fraction', 0.0):.0%})"],
    ]
    parts = [render_table(["field", "value"], summary_rows, title=title)]
    worst = report.get("worst_cells", [])
    if worst:
        # label rows with the topology only when the run recorded one
        # (legacy artifacts fold into the classic n/f-only table)
        labelled = any(c.get("topology") for c in worst)
        headers = (["topology"] if labelled else []) + [
            "n", "f", "P[S]", "half-width", "trials", "at target"
        ]
        parts.append(
            render_table(
                headers,
                [
                    ([c.get("topology") or "-"] if labelled else [])
                    + [c["n"], c["f"], f"{c['point']:.6f}", f"{c['half_width']:.6g}",
                       c["trials"], "yes" if c["met"] else ("no" if target is not None else "-")]
                    for c in worst
                ],
                title="worst cells (widest Wilson interval first)",
            )
        )
    per_f = report.get("per_f", [])
    if per_f:
        parts.append(
            render_table(
                ["f", "cells", "at target", "worst half-width", "cell trials"],
                [
                    [s["f"], s["cells"],
                     f"{s['met']}/{s['cells']}" if target is not None else "-",
                     f"{s['worst_half_width']:.6g}", f"{s['trials']:,}"]
                    for s in per_f
                ],
                title="target attainment by failure count",
            )
        )
    return "\n\n".join(parts)
