"""Tests for the experiment-result container and report writing."""

import pytest

from repro.experiments.base import ExperimentResult


def _result():
    r = ExperimentResult("demo")
    r.add_table("t", ["a", "b"], [[1, 2.5], [3, 4.0]], caption="cap")
    r.add_series("s", {"curve": ([1, 2, 3], [1, 4, 9])}, x_label="x", y_label="y")
    r.note("an observation")
    return r


def test_render_contains_everything():
    text = _result().render()
    assert "=== demo ===" in text
    assert "cap" in text
    assert "legend" in text
    assert "note: an observation" in text


def test_write_produces_report_and_csvs(tmp_path):
    files = _result().write(tmp_path)
    names = sorted(f.name for f in files)
    assert names == ["demo.txt", "demo_s.csv", "demo_t.csv"]
    assert (tmp_path / "demo_t.csv").read_text().splitlines()[0] == "a,b"
    series_csv = (tmp_path / "demo_s.csv").read_text().splitlines()
    assert series_csv[0] == "x,curve"
    assert series_csv[1] == "1,1"


def test_write_unaligned_series_long_format(tmp_path):
    r = ExperimentResult("demo2")
    r.add_series("s", {"a": ([1, 2], [1, 2]), "b": ([5, 6, 7], [5, 6, 7])})
    r.write(tmp_path)
    lines = (tmp_path / "demo2_s.csv").read_text().splitlines()
    assert lines[0] == "series,x,y"
    assert len(lines) == 1 + 2 + 3


def test_aligned_series_csv_bytes(tmp_path):
    # the CSV of aligned curves, NumPy and list ones mixed, against the bytes
    # the writer gave when it rebuilt every curve's list once per row
    import numpy as np

    xs = np.array([10, 100, 1000])
    r = ExperimentResult("demo3")
    r.add_series("s", {
        "f=2": (xs, np.array([0.25, 1 / 3, 2.5e-7])),
        "f=3": ([10, 100, 1000], [1, 0.5, np.float64(0.125)]),
    })
    r.write(tmp_path)
    assert (tmp_path / "demo3_s.csv").read_bytes() == (
        b"x,f=2,f=3\r\n"
        b"10,0.25,1\r\n"
        b"100,0.3333333333333333,0.5\r\n"
        b"1000,2.5e-07,0.125\r\n"
    )
