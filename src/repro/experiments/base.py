"""Common experiment-result container and report rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.viz import line_chart, render_table, write_csv
from repro.viz.svg import svg_line_chart


@dataclass
class Table:
    """One named table of results."""

    headers: list[str]
    rows: list[list[Any]]
    caption: str = ""


@dataclass
class Series:
    """One named family of (x, y) curves for a figure."""

    curves: dict[str, tuple[Sequence[float], Sequence[float]]]
    x_label: str = ""
    y_label: str = ""
    x_log: bool = False
    y_log: bool = False
    caption: str = ""


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    name: str
    tables: dict[str, Table] = field(default_factory=dict)
    series: dict[str, Series] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: provenance for the run manifest: seed, iteration counts, parameters —
    #: whatever is needed to rerun this exact result
    meta: dict[str, Any] = field(default_factory=dict)

    def add_table(self, key: str, headers: list[str], rows: list[list[Any]], caption: str = "") -> None:
        """Attach a table under ``key``."""
        self.tables[key] = Table(headers=headers, rows=rows, caption=caption)

    def add_series(self, key: str, curves: dict, caption: str = "", **axis: Any) -> None:
        """Attach a curve family under ``key``."""
        self.series[key] = Series(curves=curves, caption=caption, **axis)

    def note(self, text: str) -> None:
        """Attach a free-form observation to the report."""
        self.notes.append(text)

    # -------------------------------------------------------------- rendering
    def render(self, chart_width: int = 72, chart_height: int = 18) -> str:
        """Full text report: tables, ASCII charts, notes."""
        parts = [f"=== {self.name} ==="]
        for key, table in self.tables.items():
            parts.append(render_table(table.headers, table.rows, title=table.caption or key))
        for key, s in self.series.items():
            parts.append(
                line_chart(
                    s.curves,
                    width=chart_width,
                    height=chart_height,
                    title=s.caption or key,
                    x_label=s.x_label,
                    y_label=s.y_label,
                    x_log=s.x_log,
                    y_log=s.y_log,
                )
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def render_html(self) -> str:
        """HTML fragment: tables, inline-SVG figures, notes."""
        from xml.sax.saxutils import escape

        parts = [f"<section><h2>{escape(self.name)}</h2>"]
        for key, table in self.tables.items():
            parts.append(f"<h3>{escape(table.caption or key)}</h3><table border='1' cellspacing='0' cellpadding='4'>")
            parts.append("<tr>" + "".join(f"<th>{escape(str(h))}</th>" for h in table.headers) + "</tr>")
            for row in table.rows:
                cells = "".join(
                    f"<td>{escape(f'{v:.6g}' if isinstance(v, float) else str(v))}</td>" for v in row
                )
                parts.append(f"<tr>{cells}</tr>")
            parts.append("</table>")
        for key, s in self.series.items():
            parts.append(
                svg_line_chart(
                    s.curves,
                    title=s.caption or key,
                    x_label=s.x_label,
                    y_label=s.y_label,
                    x_log=s.x_log,
                    y_log=s.y_log,
                )
            )
        for note in self.notes:
            parts.append(f"<p><em>{escape(note)}</em></p>")
        parts.append("</section>")
        return "\n".join(parts)

    def write(self, out_dir: str | Path) -> list[Path]:
        """Write the text report plus one CSV per table and per series."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        report = out_dir / f"{self.name}.txt"
        report.write_text(self.render() + "\n")
        written.append(report)
        for key, table in self.tables.items():
            written.append(write_csv(out_dir / f"{self.name}_{key}.csv", table.headers, table.rows))
        for key, s in self.series.items():
            headers = ["x"] + list(s.curves)
            xs = None
            aligned = True
            for curve_x, _ in s.curves.values():
                if xs is None:
                    xs = list(curve_x)
                elif list(curve_x) != xs:
                    aligned = False
            if aligned and xs is not None:
                columns = [list(ys) for _, ys in s.curves.values()]
                rows = [[x, *(column[i] for column in columns)] for i, x in enumerate(xs)]
                written.append(write_csv(out_dir / f"{self.name}_{key}.csv", headers, rows))
            else:
                # unaligned x grids: long format
                rows = [
                    [name, x, y]
                    for name, (curve_x, curve_y) in s.curves.items()
                    for x, y in zip(curve_x, curve_y)
                ]
                written.append(write_csv(out_dir / f"{self.name}_{key}.csv", ["series", "x", "y"], rows))
        return written


def collect_precision_cells(values: dict[str, Any], prefix: str = "mc/n=") -> list[dict[str, Any]]:
    """Flatten curve-level precision rows into per-cell dicts.

    Reads every ``{prefix}{n}`` job row whose entries are
    :meth:`~repro.obs.precision.CellPrecision.to_row` dicts (plain-float
    rows and quarantined jobs contribute nothing), returning the row shape
    :func:`~repro.obs.precision.precision_report` consumes.
    """
    cells: list[dict[str, Any]] = []
    for job_name, row in values.items():
        if not job_name.startswith(prefix) or not isinstance(row, dict):
            continue
        n = int(job_name[len(prefix):])
        for key, entry in row.items():
            if not isinstance(entry, dict) or "p" not in entry:
                continue
            cell = {
                "n": n,
                "f": int(key),
                "point": float(entry["p"]),
                "low": float(entry["low"]),
                "high": float(entry["high"]),
                "successes": int(entry.get("successes", 0)),
                "trials": int(entry["trials"]),
                "half_width": (float(entry["high"]) - float(entry["low"])) / 2.0,
                "target": entry.get("target"),
                "met": bool(entry.get("met", False)),
            }
            if entry.get("topology") is not None:
                cell["topology"] = entry["topology"]
            cell["method"] = str(entry.get("method", "wilson"))
            if entry.get("std_error") is not None:
                cell["std_error"] = float(entry["std_error"])
            cells.append(cell)
    return cells


#: the confidence of every sweep interval: the estimators' default, which a
#: ``--target-ci`` run's manifest records as ``ci_confidence``
CI_CONFIDENCE = 0.95


def add_precision_artifacts(
    result: ExperimentResult,
    cells: list[dict[str, Any]],
    target: float | None,
) -> None:
    """Attach per-cell CI quality to a sweep result (table + manifest block).

    ``cells`` are precision rows (``n``, ``f``, ``point``, ``low``,
    ``high``, ``trials``, ``half_width``, optional ``target``/``met``), one
    per (N, f) grid cell.  Adds the ``mc_precision`` table — which
    :meth:`ExperimentResult.write` turns into a CSV with ci_low/ci_high/
    trials columns — and folds the cells plus the
    :func:`~repro.obs.precision.precision_report` summary into
    ``result.meta["precision"]``, which the runner copies into the run
    manifest (``repro obs precision`` reads it back from there).
    """
    from repro.obs.precision import precision_report

    if not cells:
        return
    report = precision_report(cells, target=target)
    result.add_table(
        "mc_precision",
        ["n", "f", "p", "ci_low", "ci_high", "trials", "half_width", "met_target", "method"],
        [
            [
                c["n"],
                c["f"],
                float(c["point"]),
                float(c["low"]),
                float(c["high"]),
                int(c["trials"]),
                float(c["half_width"]),
                bool(c.get("met", False)) if target is not None else "-",
                str(c.get("method", "wilson")),
            ]
            for c in sorted(cells, key=lambda c: (c["n"], c["f"]))
        ],
        caption=f"Per-cell confidence intervals at {CI_CONFIDENCE:.3g} confidence",
    )
    block = {k: v for k, v in report.items() if k != "worst_cells"}
    block["confidence"] = CI_CONFIDENCE
    block["cells"] = cells
    result.meta["precision"] = block
    if target is not None:
        result.note(
            f"adaptive stopping: {report['met_target']}/{report['cells']} cells at "
            f"target half-width {target:g}; {report['total_trials']:,} trials vs "
            f"{report['fixed_equivalent_trials']:,} fixed-count equivalent "
            f"({report['trials_saved_fraction']:.0%} saved)"
        )


def write_html_index(results: list["ExperimentResult"], out_dir: str | Path) -> Path:
    """Write one self-contained HTML page covering all results."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = "\n".join(result.render_html() for result in results)
    page = (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>DRS reproduction results</title>"
        "<style>body{font-family:sans-serif;max-width:960px;margin:2em auto;}"
        "table{border-collapse:collapse;margin:1em 0;}th{background:#f0f0f0;}"
        "td,th{text-align:right;}td:first-child,th:first-child{text-align:left;}</style>"
        "</head><body><h1>DRS network-survivability reproduction</h1>"
        f"{body}</body></html>"
    )
    path = out_dir / "index.html"
    path.write_text(page)
    return path
