"""Unit tests for simulator and Monte Carlo profiling publication."""

import numpy as np
import pytest

from repro.analysis import simulate_grid
from repro.obs import (
    MetricsRegistry,
    ensure_core_metrics,
    install_profiling,
    publish_mc_throughput,
    publish_profile,
    uninstall_profiling,
    use_registry,
)
from repro.obs.profiler import profiling_installed
from repro.simkit import Simulator


@pytest.fixture
def profiled():
    install_profiling()
    try:
        yield
    finally:
        uninstall_profiling()


def test_install_profiling_publishes_into_current_registry(profiled):
    assert profiling_installed()
    reg = MetricsRegistry()
    with use_registry(reg):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
    assert reg.counter("sim_events_total").value == 2
    assert reg.counter("sim_run_seconds_total").value > 0
    assert reg.gauge("sim_events_per_second").value > 0
    # lambdas defined in this module land in a category named after it
    assert reg.counter("sim_events_total", labels={"category": "test_profiler"}).value == 2


def test_repeated_runs_publish_only_deltas(profiled):
    reg = MetricsRegistry()
    with use_registry(reg):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        sim.run()
    assert reg.counter("sim_events_total").value == 2


def test_uninstalled_simulators_do_not_profile():
    uninstall_profiling()
    sim = Simulator()
    assert sim.profile is None


def test_manual_publish_profile():
    sim = Simulator()
    prof = sim.enable_profiling()
    sim.schedule(1.0, lambda: None)
    sim.run()
    reg = MetricsRegistry()
    with use_registry(reg):
        publish_profile(prof)
        # second publication with no new work is a no-op
        publish_profile(prof)
    assert reg.counter("sim_events_total").value == 1


def test_publish_mc_throughput():
    reg = MetricsRegistry()
    with use_registry(reg):
        publish_mc_throughput(1000, 0.5)
        publish_mc_throughput(1000, 0.5)
    assert reg.counter("mc_iterations_total").value == 2000
    assert reg.counter("mc_wall_seconds_total").value == pytest.approx(1.0)
    assert reg.gauge("mc_iterations_per_second").value == pytest.approx(2000.0)


def test_montecarlo_publishes_throughput():
    reg = ensure_core_metrics(MetricsRegistry())
    rng = np.random.default_rng(7)
    with use_registry(reg):
        p = simulate_grid(8, (2,), 500, rng)[2]
    assert 0.0 <= p <= 1.0
    assert reg.counter("mc_iterations_total").value == 500
    assert reg.gauge("mc_iterations_per_second").value > 0
