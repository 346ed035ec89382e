"""A point is a one-cell call into the sweep loop.

The identity that makes that collapse safe — the ``f`` smallest keys of a
row are the same failure set whether picked by ``argpartition`` or by
``rank < f`` — is asserted here as a table: on the same generator state,
the per-point reference (``argpartition`` over the CRN keys, drawn by the
key rule written out in ``tests/conftest.py``, and a vectorized predicate)
and the one-cell grid call return the bit-identical float.
The rest pins what a one-cell estimate gains by going through the loop:
the shared input validation and the telemetry (heartbeat trials,
``mc_iterations_total``, ``stats.cell`` events).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    simulate_full_grid,
    simulate_grid,
    simulate_topology_grid,
    simulate_weighted_success,
    topology_connected_vec,
)
from repro.analysis.allpairs import allpairs_connected_vec
from repro.analysis.montecarlo import pair_connected_vec
from repro.engine import get_spec
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.precision import STATS_GRID_KIND, grid_payloads
from repro.obs.progress import ProgressReporter, set_heartbeat
from repro.topology import AllTerminalsConnected, build_topology, dual_hub_cluster
from tests.conftest import crn_keys

SEED = 914
ITERATIONS = 30_000


def _topology(spec: str):
    return build_topology(spec, size=6)


def _allpairs_cell(n, f, iterations, rng, batch=200_000):
    """The whole-cluster estimate: one cell of the dual-hub topology under all-terminals."""
    topology = dual_hub_cluster(n)
    return simulate_topology_grid(
        topology, (f,), iterations, rng, batch=batch, predicate=AllTerminalsConnected()
    )[f]


def _failed(keys: np.ndarray, f: int) -> np.ndarray:
    """Each row's ``f`` smallest keys fail, picked by ``argpartition``."""
    failed = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(failed, np.argpartition(keys, f - 1, axis=1)[:, :f], True, axis=1)
    return failed


def _weighted_failed(rng, n: int, f: int, hub: float, nic: float) -> np.ndarray:
    """Gumbel top-k over the same keys: ``log(-log u) - log w`` with ``u = (k + 0.5) 2^-32``."""
    log_w = np.log([hub] * 2 + [nic] * (2 * n))
    u = (crn_keys(rng, ITERATIONS, 2 * n + 2) + 0.5) * 2.0**-32
    return _failed(np.log(-np.log(u)) - log_w, f)


def _topology_reference(spec, predicate):
    def estimate(rng):
        topology = _topology(spec)
        failed = _failed(crn_keys(rng, ITERATIONS, topology.width), 3)
        return topology_connected_vec(topology, failed, predicate).mean()

    return estimate


IDENTITIES = {
    "pair": (
        lambda rng: pair_connected_vec(_failed(crn_keys(rng, ITERATIONS, 42), 4)).mean(),
        lambda rng: simulate_grid(20, (4,), ITERATIONS, rng)[4],
    ),
    "pair/no-two-hop": (
        lambda rng: pair_connected_vec(
            _failed(crn_keys(rng, ITERATIONS, 42), 4), two_hop=False
        ).mean(),
        lambda rng: simulate_grid(20, (4,), ITERATIONS, rng, two_hop=False)[4],
    ),
    **{
        f"topology/{spec}/{label}": (
            _topology_reference(spec, predicate),
            lambda rng, spec=spec, predicate=predicate: simulate_topology_grid(
                _topology(spec), (3,), ITERATIONS, rng, predicate=predicate
            )[3],
        )
        for spec in ("dual-hub", "khub:hubs=3", "fattree2", "multicluster")
        for label, predicate in (("default", None), ("all-terminals", AllTerminalsConnected()))
    },
    **{
        f"allpairs/n={n}/f={f}": (
            lambda rng, n=n, f=f: allpairs_connected_vec(
                _failed(crn_keys(rng, ITERATIONS, 2 * n + 2), f)
            ).mean(),
            lambda rng, n=n, f=f: _allpairs_cell(n, f, ITERATIONS, rng),
        )
        for n, f in ((8, 3), (16, 4), (32, 5))
    },
    **{
        f"weighted/hub={hub}/nic={nic}": (
            lambda rng, hub=hub, nic=nic: pair_connected_vec(
                _weighted_failed(rng, 16, 3, hub, nic)
            ).mean(),
            lambda rng, hub=hub, nic=nic: simulate_weighted_success(
                16, 3, ITERATIONS, rng, hub_weight=hub, nic_weight=nic
            ),
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
    "allpairs": _allpairs_cell,
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
    cells = [
        cell
        for event in recorder.drain()
        if event["kind"] == STATS_GRID_KIND
        for cell in grid_payloads(event)
    ]
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
        simulate_grid(5, (1,), 10, np.random.default_rng(1), batch=batch)
    with pytest.raises(ValueError, match="batch must be >= 1"):
        simulate_topology_grid(_topology("fattree2"), (1,), 10, np.random.default_rng(1), batch=batch)


#: every grid, called with the counts of one test case: ``(iterations, batch, max_iterations)``
GRIDS = {
    "full": lambda it, batch, cap, fs=(1,): simulate_full_grid(
        (5, 6), fs, it, dict.fromkeys((5, 6), np.random.default_rng(1)), batch=batch,
        target_half_width=None if cap is None else 0.01, max_iterations=cap,
    ),
    "full/stratified": lambda it, batch, cap, fs=(1,): simulate_full_grid(
        (5, 6), fs, it, dict.fromkeys((5, 6), np.random.default_rng(1)), batch=batch,
        target_half_width=None if cap is None else 0.01, max_iterations=cap, method="stratified",
    ),
    "topology": lambda it, batch, cap, fs=(1,): simulate_topology_grid(
        _topology("fattree2"), fs, it, np.random.default_rng(1), batch=batch,
        target_half_width=None if cap is None else 0.01, max_iterations=cap,
    ),
    "topology/stratified": lambda it, batch, cap, fs=(1,): simulate_topology_grid(
        _topology("khub:hubs=3"), fs, it, np.random.default_rng(1), batch=batch,
        target_half_width=None if cap is None else 0.01, max_iterations=cap, method="stratified",
    ),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize(
    "name, counts",
    [
        # nan trials used to return {} without sampling, 2.5 to fail as a slicing TypeError
        ("iterations", (float("nan"), 100, None)),
        ("iterations", (2.5, 100, None)),
        ("iterations", (float("inf"), 100, None)),
        ("batch", (10, float("nan"), None)),
        ("batch", (10, 2.5, None)),
        # a nan budget with a target used to raise KeyError after the loop
        ("max_iterations", (10, 100, float("nan"))),
        ("max_iterations", (10, 100, 2_000.5)),
    ],
)
def test_a_count_that_is_not_an_integer_is_a_value_error_naming_it(grid, name, counts):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        GRIDS[grid](*counts)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_numpy_integer_counts_still_pass(grid):
    counts = (np.int64(40), np.int32(25), np.int64(80))
    assert GRIDS[grid](*counts[:2], None) == GRIDS[grid](40, 25, None)
    assert GRIDS[grid](*counts).keys() == GRIDS[grid](40, 25, 80).keys()


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_a_fractional_failure_count_is_a_value_error(grid):
    """``fs=(1.5,)`` used to pass the range checks and die as an ``IndexError`` in ``_at_least``."""
    with pytest.raises(ValueError, match="^f must be an integer, got 1.5"):
        GRIDS[grid](10, 100, None, fs=(1, 1.5))
    assert GRIDS[grid](10, 100, None, fs=(np.int64(1),)).keys() == GRIDS[grid](10, 100, None).keys()
