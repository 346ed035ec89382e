"""Standalone SVG line charts (no plotting dependencies).

The offline environment has no matplotlib; these charts are hand-built SVG
strings good enough for the HTML experiment reports: linear/log axes with
ticks, one polyline per series, and a legend.  Colors follow a fixed
color-blind-safe cycle.
"""

from __future__ import annotations

import html
import math
from functools import partial
from typing import Mapping, Sequence

#: text-node escaping of ``&``, ``<`` and ``>`` (not ``xml.sax.saxutils``,
#: whose import pulls in ``urllib.request`` and the mail and HTTP stack)
escape = partial(html.escape, quote=False)

#: Okabe-Ito color-blind-safe cycle.
COLORS = (
    "#0072B2", "#D55E00", "#009E73", "#CC79A7",
    "#E69F00", "#56B4E9", "#F0E442", "#000000",
    "#999999", "#882255",
)


def _transform(values: Sequence[float], log: bool) -> list[float]:
    out = []
    for v in values:
        v = float(v)
        if log:
            if v <= 0:
                raise ValueError(f"log axis requires positive values, got {v}")
            v = math.log10(v)
        out.append(v)
    return out


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(value: float, log: bool) -> str:
    raw = 10**value if log else value
    return f"{raw:.3g}"


def svg_line_chart(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 640,
    height: int = 360,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_log: bool = False,
    y_log: bool = False,
) -> str:
    """Render named (x, y) series as an SVG document string."""
    if not series:
        raise ValueError("no series to plot")
    margin_left, margin_right, margin_top, margin_bottom = 64, 150, 36, 48
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    if plot_w <= 10 or plot_h <= 10:
        raise ValueError("chart too small to render")

    points = {}
    for name, (xs, ys) in series.items():
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError(f"series {name!r}: empty or mismatched x/y")
        points[name] = (_transform(xs, x_log), _transform(ys, y_log))

    all_x = [x for xs, _ in points.values() for x in xs]
    all_y = [y for _, ys in points.values() for y in ys]
    x_min, x_max = min(all_x), max(all_x)
    y_min, y_max = min(all_y), max(all_y)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    def px(x: float) -> float:
        return margin_left + (x - x_min) / x_span * plot_w

    def py(y: float) -> float:
        return margin_top + plot_h - (y - y_min) / y_span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>'
        )
    # axes frame
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    # ticks + gridlines
    for tx in _ticks(x_min, x_max):
        x = px(tx)
        parts.append(f'<line x1="{x:.1f}" y1="{margin_top}" x2="{x:.1f}" y2="{margin_top + plot_h}" stroke="#eee"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{margin_top + plot_h + 16}" text-anchor="middle">{_fmt(tx, x_log)}</text>'
        )
    for ty in _ticks(y_min, y_max):
        y = py(ty)
        parts.append(f'<line x1="{margin_left}" y1="{y:.1f}" x2="{margin_left + plot_w}" y2="{y:.1f}" stroke="#eee"/>')
        parts.append(
            f'<text x="{margin_left - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(ty, y_log)}</text>'
        )
    # axis labels
    if x_label:
        label = x_label + (" (log)" if x_log else "")
        parts.append(
            f'<text x="{margin_left + plot_w / 2}" y="{height - 10}" text-anchor="middle">{escape(label)}</text>'
        )
    if y_label:
        label = y_label + (" (log)" if y_log else "")
        parts.append(
            f'<text x="16" y="{margin_top + plot_h / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {margin_top + plot_h / 2})">{escape(label)}</text>'
        )
    # series
    for index, (name, (xs, ys)) in enumerate(points.items()):
        color = COLORS[index % len(COLORS)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend_y = margin_top + 14 * index
        parts.append(
            f'<line x1="{width - margin_right + 10}" y1="{legend_y + 6}" '
            f'x2="{width - margin_right + 30}" y2="{legend_y + 6}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{width - margin_right + 34}" y="{legend_y + 10}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
