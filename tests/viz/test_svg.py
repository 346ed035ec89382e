"""Tests for SVG chart rendering and HTML reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.viz.svg import svg_line_chart


def test_svg_structure_and_series():
    svg = svg_line_chart({"a": ([1, 2, 3], [1, 4, 9]), "b": ([1, 2, 3], [9, 4, 1])})
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert ">a</text>" in svg and ">b</text>" in svg  # legend entries


def test_svg_title_and_labels_escaped():
    svg = svg_line_chart({"s": ([0, 1], [0, 1])}, title="A <B>", x_label="n & m", y_label="p")
    assert "A &lt;B&gt;" in svg
    assert "n &amp; m" in svg


def test_svg_escapes_exactly_the_three_text_entities():
    svg = svg_line_chart({"s": ([0, 1], [0, 1])}, title="a&b<c>\"d'")
    assert ">a&amp;b&lt;c&gt;\"d'</text>" in svg  # quotes stay as they are


def test_importing_svg_leaves_out_the_mail_and_http_stack():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
    code = "import sys, repro.viz.svg; print(sorted({'http.client', 'email'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_svg_log_axis():
    svg = svg_line_chart({"s": ([10, 100, 1000], [1, 2, 3])}, x_log=True, x_label="iters")
    assert "iters (log)" in svg
    with pytest.raises(ValueError):
        svg_line_chart({"s": ([0, 1], [1, 2])}, x_log=True)


def test_svg_validation():
    with pytest.raises(ValueError):
        svg_line_chart({})
    with pytest.raises(ValueError):
        svg_line_chart({"s": ([1], [1, 2])})
    with pytest.raises(ValueError):
        svg_line_chart({"s": ([1, 2], [1, 2])}, width=50)


def test_svg_constant_series_no_division_by_zero():
    svg = svg_line_chart({"flat": ([1, 2], [5, 5])})
    assert "<polyline" in svg


def test_result_render_html_and_index(tmp_path):
    from repro.experiments.base import ExperimentResult, write_html_index

    result = ExperimentResult("demo")
    result.add_table("t", ["a", "b"], [[1, 2.5]], caption="cap & more")
    result.add_series("s", {"c": ([1, 2], [3, 4])}, x_label="x")
    result.note("watch < this")
    html = result.render_html()
    assert "<h2>demo</h2>" in html
    assert "cap &amp; more" in html
    assert "<svg" in html
    assert "watch &lt; this" in html

    index = write_html_index([result], tmp_path)
    page = index.read_text()
    assert page.startswith("<!DOCTYPE html>")
    assert "<h2>demo</h2>" in page


def test_runner_html_flag(tmp_path):
    from repro.experiments.runner import main

    assert main(["crossovers", "--out", str(tmp_path), "--html"]) == 0
    assert (tmp_path / "index.html").exists()
