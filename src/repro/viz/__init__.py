"""Output rendering: ASCII charts, aligned tables, CSV emitters.

matplotlib is unavailable in the offline reproduction environment, so every
figure is emitted twice: as a CSV series file (plot-ready elsewhere) and as
an ASCII rendering good enough to read the curve shapes directly in a
terminal or in EXPERIMENTS.md.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "textplot": ["line_chart"],
        "tables": ["render_table", "metrics_summary_table"],
        "csvout": ["write_csv"],
        "svg": ["svg_line_chart"],
    },
)
