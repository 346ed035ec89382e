"""The per-point estimators are one-cell calls into the sweep loop.

The identity that makes that collapse safe — the ``f`` smallest keys of a
row are the same failure set whether picked by ``argpartition`` or by
``rank < f`` — is asserted here as a table: on the same generator state,
every per-point estimator returns the bit-identical float of the one-cell
grid call it now is.  The rest pins what the per-point estimators gain by
going through the loop: the shared input validation and the telemetry
(heartbeat trials, ``mc_iterations_total``, ``stats.cell`` events).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    simulate_allpairs_success,
    simulate_grid,
    simulate_success_probability,
    simulate_topology_grid,
    simulate_topology_success,
    simulate_weighted_success,
)
from repro.engine import get_spec
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.precision import STATS_CELL_KIND
from repro.obs.progress import ProgressReporter, set_heartbeat
from repro.topology import AllTerminalsConnected, build_topology, dual_hub_cluster

SEED = 914
ITERATIONS = 30_000


def _topology(spec: str):
    return build_topology(spec, size=6)


def _weighted_dual_hub(n: int, hub_weight: float, nic_weight: float = 1.0):
    weights = (hub_weight,) * 2 + (nic_weight,) * (2 * n)
    return dataclasses.replace(dual_hub_cluster(n), weights=weights)


IDENTITIES = {
    "pair": (
        lambda rng: simulate_success_probability(20, 4, ITERATIONS, rng),
        lambda rng: simulate_grid(20, (4,), ITERATIONS, rng)[4],
    ),
    "pair/no-two-hop": (
        lambda rng: simulate_success_probability(20, 4, ITERATIONS, rng, two_hop=False),
        lambda rng: simulate_grid(20, (4,), ITERATIONS, rng, two_hop=False)[4],
    ),
    **{
        f"topology/{spec}/{label}": (
            lambda rng, spec=spec, predicate=predicate: simulate_topology_success(
                _topology(spec), 3, ITERATIONS, rng, predicate=predicate
            ),
            lambda rng, spec=spec, predicate=predicate: simulate_topology_grid(
                _topology(spec), (3,), ITERATIONS, rng, predicate=predicate
            )[3],
        )
        for spec in ("dual-hub", "khub:hubs=3", "fattree2", "multicluster")
        for label, predicate in (("default", None), ("all-terminals", AllTerminalsConnected()))
    },
    **{
        f"allpairs/n={n}/f={f}": (
            lambda rng, n=n, f=f: simulate_allpairs_success(n, f, ITERATIONS, rng),
            lambda rng, n=n, f=f: simulate_topology_grid(
                dual_hub_cluster(n), (f,), ITERATIONS, rng, predicate=AllTerminalsConnected()
            )[f],
        )
        for n, f in ((8, 3), (16, 4), (32, 5))
    },
    **{
        f"weighted/hub={hub}/nic={nic}": (
            lambda rng, hub=hub, nic=nic: simulate_weighted_success(
                16, 3, ITERATIONS, rng, hub_weight=hub, nic_weight=nic
            ),
            lambda rng, hub=hub, nic=nic: simulate_topology_grid(
                _weighted_dual_hub(16, hub, nic), (3,), ITERATIONS, rng
            )[3],
        )
        for hub, nic in ((1.0, 1.0), (36.6, 1.0), (0.5, 2.0))
    },
}


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_per_point_equals_the_one_cell_grid_call_bit_for_bit(name):
    per_point, one_cell = IDENTITIES[name]
    point_rng, cell_rng = np.random.default_rng(SEED), np.random.default_rng(SEED)
    assert per_point(point_rng) == one_cell(cell_rng)
    # ... and both consumed exactly the same stretch of the stream
    assert point_rng.random() == cell_rng.random()


# ------------------------------------------------- validation gained
POINT_ESTIMATORS = {
    "allpairs": simulate_allpairs_success,
    "weighted": simulate_weighted_success,
}


@pytest.mark.parametrize("estimator", sorted(POINT_ESTIMATORS))
@pytest.mark.parametrize("iterations", [0, -5])
def test_nonpositive_iterations_raise_value_error(estimator, iterations):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"iterations must be >= 1, got {iterations}"):
        POINT_ESTIMATORS[estimator](8, 3, iterations, rng)


@pytest.mark.parametrize("estimator", sorted(POINT_ESTIMATORS))
def test_degenerate_cluster_and_failure_count_raise_before_sampling(estimator):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=">= 2"):
        POINT_ESTIMATORS[estimator](1, 1, 0, rng)
    with pytest.raises(ValueError, match="f must be in"):
        POINT_ESTIMATORS[estimator](8, 19, 0, rng)


def test_weighted_rejects_nonpositive_weights():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="positive"):
        simulate_weighted_success(8, 3, 100, rng, hub_weight=0.0)
    with pytest.raises(ValueError, match="positive"):
        simulate_weighted_success(8, 3, 100, rng, nic_weight=-1.0)


# -------------------------------------------------- telemetry gained
@pytest.mark.parametrize("estimator", sorted(POINT_ESTIMATORS))
def test_per_point_estimators_tick_every_telemetry_channel(estimator):
    reporter = ProgressReporter("one-loop", interval_s=1e12)
    recorder = FlightRecorder(None, experiment="one-loop")
    registry = MetricsRegistry()
    set_heartbeat(reporter)
    set_flight_recorder(recorder)
    try:
        with use_registry(registry):
            POINT_ESTIMATORS[estimator](8, 3, 2_500, np.random.default_rng(1), batch=1_000)
    finally:
        set_heartbeat(None)
        set_flight_recorder(None)
    assert reporter.trials == 2_500
    assert registry.counter("mc_iterations_total").value == 2_500
    cells = [e for e in recorder.drain() if e["kind"] == STATS_CELL_KIND]
    assert [(e["n"], e["f"], e["trials"], e["done"]) for e in cells] == [
        (8, 3, 1_000, False),
        (8, 3, 2_000, False),
        (8, 3, 2_500, True),
    ]


@pytest.mark.parametrize(
    "name, overrides",
    [("wholecluster", {}), ("availability", {}), ("ablations", {"run_des": False})],
)
def test_quick_experiment_reports_exactly_the_trials_its_plan_declares(name, overrides):
    spec = get_spec(name)
    reporter = ProgressReporter(name, interval_s=1e12)
    set_heartbeat(reporter)
    try:
        spec.run(**{**spec.kwargs("quick"), **overrides})
    finally:
        set_heartbeat(None)
    assert reporter.total, "the plan declares no total_trials: no ETA, no trial rate"
    assert reporter.trials == reporter.total


@pytest.mark.parametrize("batch", [0, -3])
def test_batch_below_one_is_rejected_by_the_loop(batch):
    """``batch=0`` used to spin forever (a round of zero trials never reaches the budget)."""
    with pytest.raises(ValueError, match=f"batch must be >= 1, got {batch}"):
        simulate_grid(5, (1,), 10, seed=1, batch=batch)
    with pytest.raises(ValueError, match="batch must be >= 1"):
        simulate_topology_grid(_topology("fattree2"), (1,), 10, seed=1, batch=batch)
