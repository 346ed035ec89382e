"""Per-cell precision records, stream reduction, reports, and the CLI verb."""

import json

import numpy as np
import pytest

from repro.analysis import wilson_interval
from repro.obs import RunManifest
from repro.obs.cli import main as obs_main
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.precision import (
    STATS_GRID_KIND,
    CellPrecision,
    PrecisionGrid,
    cells_from_event,
    cells_from_manifest,
    fold_cells,
    grid_payloads,
    precision_report,
    render_precision_report,
)


def _cell(n=8, f=3, successes=700, trials=1000, confidence=0.95, **kw):
    est = wilson_interval(successes, trials, confidence)
    return CellPrecision(n, f, successes, trials, confidence, est.point, est.low, est.high, **kw)


def _publish(cell, done=False):
    """Publish ``cell`` as the sweep loop does: one entry of a one-group :class:`PrecisionGrid`."""
    grid = PrecisionGrid(
        (cell.n,), (cell.f,), np.array([cell.successes]), cell.trials, cell.confidence,
        np.array([cell.point]), np.array([cell.low]), np.array([cell.high]), cell.target_half_width,
    )
    grid.publish([(0, done)])


class TestCellPrecision:
    def test_half_width_is_half_the_interval(self):
        cell = _cell(confidence=0.99)
        assert cell.half_width == wilson_interval(700, 1000, confidence=0.99).half_width

    def test_throughput(self):
        cell = _cell(elapsed_s=2.0)
        assert cell.trials_per_second == 500.0
        assert _cell(elapsed_s=0.0).trials_per_second == 0.0

    def test_met_target(self):
        wide = _cell(trials=100, successes=70, target_half_width=1e-4)
        tight = _cell(target_half_width=0.5)
        assert not wide.met_target
        assert tight.met_target
        assert not _cell().met_target  # no target recorded

    def test_to_row_and_grid_event_round_trip(self):
        plain = _cell().to_row()
        assert plain["p"] == 0.7
        assert "target" not in plain and "met" not in plain
        targeted = _cell(target_half_width=0.5).to_row()
        assert targeted["target"] == 0.5 and targeted["met"] is True
        rec = FlightRecorder(None)
        set_flight_recorder(rec)
        try:
            _publish(_cell(target_half_width=0.5), done=True)
        finally:
            set_flight_recorder(None)
        (event,) = rec.drain()
        # through JSON, as the stream carries it
        (fields,) = grid_payloads(json.loads(json.dumps(event)))
        assert fields == {
            "n": 8, "f": 3, "successes": 700, "trials": 1000, "confidence": 0.95,
            "point": 0.7, "half_width": round(_cell().half_width, 8), "done": True,
            "target": 0.5, "met": True,
        }


class TestPublishAndFold:
    def test_publish_is_a_noop_without_a_recorder(self):
        set_flight_recorder(None)
        _publish(_cell())  # must not raise

    def test_publish_emits_stats_grid_and_fold_keeps_latest(self):
        rec = FlightRecorder(None, experiment="sweep")
        set_flight_recorder(rec)
        try:
            _publish(_cell(trials=500, successes=350))
            _publish(_cell(target_half_width=0.5), done=True)
            _publish(_cell(n=9, f=0, successes=1000))
        finally:
            set_flight_recorder(None)
        events = rec.drain()
        assert [e["kind"] for e in events] == [STATS_GRID_KIND] * 3
        cells = fold_cells(events + [{"kind": "heartbeat", "trials": 1}])
        assert set(cells) == {(8, 3), (9, 0)}
        latest = cells[(8, 3)]  # second snapshot supersedes the first
        assert latest["trials"] == 1000 and latest["done"] and latest["met"]
        assert cells[(9, 0)]["target"] is None and not cells[(9, 0)]["done"]

    def test_one_event_per_publish_and_none_for_no_entries(self):
        grid = PrecisionGrid(
            (5, 5, 6), (1, 2, 4), np.array([90, 80, 40]), 100, 0.95, np.array([0.9, 0.8, 0.4]),
            np.array([0.8, 0.7, 0.35]), np.array([0.95, 0.9, 0.45]), 0.06, topology="ring(n=5)",
        )
        rec = FlightRecorder(None, experiment="sweep")
        set_flight_recorder(rec)
        try:
            grid.publish([(2, True), (0, False)])
            grid.publish([])
        finally:
            set_flight_recorder(None)
        (event,) = rec.drain()
        assert event["n"] == [6, 5] and event["f"] == [4, 1] and event["done"] == [True, False]
        assert event["topology"] == "ring(n=5)"
        assert event["met"] == [True, False] and "std_error" not in event
        assert [key for key, _ in cells_from_event(event)] == [("ring(n=5)", 6, 4),
                                                               ("ring(n=5)", 5, 1)]


class TestManifestExtraction:
    def test_cells_from_manifest_digs_the_precision_block(self):
        section = {
            "cells": [{"n": 8, "f": 3, "trials": 100, "half_width": 0.05}],
            "target_half_width": 0.01,
            "met_target": 0,
        }
        manifest = {"config": {"iterations": 100, "precision": section}}
        cells, summary = cells_from_manifest(manifest)
        assert cells == section["cells"]
        assert summary == {"target_half_width": 0.01, "met_target": 0}

    def test_cells_from_manifest_without_a_block(self):
        assert cells_from_manifest({"config": {}}) == ([], {})
        assert cells_from_manifest({}) == ([], {})


class TestPrecisionReport:
    def _cells(self):
        # two N rows under the CRN kernel; trials differ per cell
        return [
            {"n": 8, "f": 2, "trials": 1000, "half_width": 0.010, "point": 0.9,
             "target": 0.02, "met": True},
            {"n": 8, "f": 5, "trials": 4000, "half_width": 0.015, "point": 0.5,
             "target": 0.02, "met": True},
            {"n": 12, "f": 2, "trials": 2000, "half_width": 0.030, "point": 0.8,
             "target": 0.02, "met": False},
        ]

    def test_crn_trials_accounting(self):
        report = precision_report(self._cells())
        # per-row maxima: n=8 -> 4000, n=12 -> 2000; fixed run: 2 rows x 4000
        assert report["rows"] == 2
        assert report["total_trials"] == 6000
        assert report["fixed_equivalent_trials"] == 8000
        assert report["trials_saved"] == 2000
        assert report["trials_saved_fraction"] == pytest.approx(0.25)

    def test_targets_worst_cells_and_per_f(self):
        report = precision_report(self._cells(), top=2)
        assert report["cells"] == 3 and report["met_target"] == 2
        assert report["target_half_width"] == 0.02
        assert report["worst_half_width"] == 0.030
        assert [(c["n"], c["f"]) for c in report["worst_cells"]] == [(12, 2), (8, 5)]
        per_f = {s["f"]: s for s in report["per_f"]}
        assert per_f[2]["cells"] == 2 and per_f[2]["met"] == 1
        assert per_f[5]["worst_half_width"] == 0.015

    def test_target_override_rejudges_cells(self):
        report = precision_report(self._cells(), target=0.012)
        assert report["met_target"] == 1  # only the 0.010 cell survives

    def test_empty_and_render(self):
        empty = precision_report([])
        assert empty["cells"] == 0 and empty["trials_saved_fraction"] == 0.0
        text = render_precision_report(precision_report(self._cells()), source="run")
        assert "sweep quality: run" in text
        assert "worst cells" in text and "failure count" in text
        assert "2/3" in text  # at-target summary row


class TestPrecisionVerb:
    def _write_flight(self, tmp_path):
        path = tmp_path / "run.flight.jsonl"
        rec = FlightRecorder(path, experiment="sweep")
        set_flight_recorder(rec)
        try:
            _publish(_cell(target_half_width=0.5), done=True)
            _publish(_cell(n=9, f=1, trials=2000, successes=1500), done=True)
        finally:
            set_flight_recorder(None)
            rec.close()
        return path

    def test_report_from_flight_stream(self, tmp_path, capsys):
        path = self._write_flight(tmp_path)
        assert obs_main(["precision", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sweep quality: run.flight.jsonl" in out and "worst cells" in out

    def test_json_report_from_manifest(self, tmp_path, capsys):
        section = precision_report(
            [{"n": 8, "f": 3, "trials": 100, "half_width": 0.05, "point": 0.7}]
        )
        section.pop("worst_cells")
        section["cells"] = [
            {"n": 8, "f": 3, "trials": 100, "half_width": 0.05, "point": 0.7}
        ]
        manifest = RunManifest.build(
            "figure2", "experiment", seed=1,
            config={"precision": section}, wall_seconds=0.1, event_count=2,
        )
        path = tmp_path / "figure2.manifest.json"
        manifest.write(path)
        assert obs_main(["precision", str(path), "--json", "--target", "0.01"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["source"] == str(path)
        assert report["cells"] == 1 and report["met_target"] == 0

    def test_errors_on_bad_source(self, tmp_path, capsys):
        bad = tmp_path / "run.metrics.jsonl"
        bad.write_text("")
        assert obs_main(["precision", str(bad)]) == 1
        assert "expected a *.flight.jsonl" in capsys.readouterr().err
        empty = tmp_path / "empty.flight.jsonl"
        empty.write_text('{"kind": "run.begin", "t": 0.0, "pid": 1}\n')
        assert obs_main(["precision", str(empty)]) == 1
        assert "no per-cell precision data" in capsys.readouterr().err

    def test_a_schema_1_stream_is_refused_in_one_line(self, tmp_path, capsys):
        # flight schema 1 carried one stats.cell event per cell; read as
        # schema 2 it used to fold to no cells without a word
        old = {"t": 0.1, "kind": "stats.cell", "pid": 1, "n": 3, "f": 1, "trials": 1000,
               "point": 0.9, "half_width": 0.03, "done": True, "seq": 1}
        refusal = r"'stats\.cell' event is flight schema 1; this reader takes schema 3"
        with pytest.raises(ValueError, match=refusal):
            cells_from_event(old)
        with pytest.raises(ValueError, match=refusal):
            fold_cells([{"kind": "heartbeat"}, old])
        path = tmp_path / "old.flight.jsonl"
        path.write_text(json.dumps(old) + "\n")
        assert obs_main(["precision", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {path}: a 'stats.cell' event is flight schema 1")

    def test_a_schema_2_grid_is_refused_naming_both_schemas(self):
        # flight schema 2 labelled one group's cells with a scalar n
        old = {"t": 0.1, "kind": "stats.grid", "pid": 1, "n": 3, "trials": 1000,
               "confidence": 0.95, "f": [1, 2], "point": [0.9, 0.8], "half_width": [0.03, 0.04],
               "done": [True, True], "seq": 1}
        refusal = r"scalar 'n' is flight schema 2; this reader takes schema 3"
        with pytest.raises(ValueError, match=refusal):
            grid_payloads(old)
        with pytest.raises(ValueError, match=refusal):
            fold_cells([{"kind": "heartbeat"}, old])
        # the same cells as schema 3 fold
        assert set(fold_cells([{**old, "n": [3, 3]}])) == {(3, 1), (3, 2)}
