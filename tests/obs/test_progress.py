"""Heartbeat reporter: throttling, formatting, and the current-reporter hook."""

import io

import pytest

from repro.obs.progress import ProgressReporter, heartbeat, set_heartbeat


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _reporter(**kwargs):
    clock = FakeClock()
    stream = io.StringIO()
    defaults = dict(interval_s=5.0, stream=stream, clock=clock)
    defaults.update(kwargs)
    return ProgressReporter("sweep", **defaults), clock, stream


def test_add_is_interval_throttled():
    reporter, clock, stream = _reporter()
    reporter.add(100)
    clock.t = 4.9
    reporter.add(100)
    assert stream.getvalue() == ""  # inside the interval: silent
    clock.t = 5.0
    reporter.add(100)
    assert reporter.heartbeats == 1
    line = stream.getvalue()
    assert "[sweep] 300 trials" in line and "60 trials/s" in line


def test_eta_and_counts_formatting():
    reporter, clock, _ = _reporter(total=1000)
    reporter.add(250, faults=2, repairs=1)
    reporter.add(0, repairs=1)
    clock.t = 10.0
    line = reporter.emit()
    assert "250/1000 trials" in line
    assert "ETA 30s" in line  # 750 left at 25/s
    assert "incidents: faults=2 repairs=2" in line


def test_summary_after_a_heartbeat():
    reporter, clock, stream = _reporter()
    reporter.add(500)
    clock.t = 2.0
    reporter.emit()
    summary = reporter.summary()
    assert "500 trials, 250 trials/s" in stream.getvalue()
    assert summary["trials"] == 500
    assert summary["trials_per_second"] == pytest.approx(250.0)
    assert summary["heartbeats"] == 1
    assert summary["label"] == "sweep"


def test_zero_elapsed_reports_zero_rate():
    reporter, _, _ = _reporter()
    assert reporter.summary()["trials_per_second"] == 0.0
    assert "0 trials/s" in reporter.emit()


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        ProgressReporter("x", interval_s=0.0)


def test_current_heartbeat_install_and_clear():
    assert heartbeat() is None
    reporter, _, _ = _reporter()
    set_heartbeat(reporter)
    try:
        assert heartbeat() is reporter
    finally:
        set_heartbeat(None)
    assert heartbeat() is None


def test_montecarlo_batches_feed_the_heartbeat():
    import numpy as np

    from repro.analysis.montecarlo import simulate_grid

    reporter, _, _ = _reporter()
    set_heartbeat(reporter)
    try:
        simulate_grid(8, (2,), 1000, np.random.default_rng(0), batch=250)
    finally:
        set_heartbeat(None)
    assert reporter.trials == 1000
