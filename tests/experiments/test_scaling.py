"""Tests for the deployed-range scaling experiment and the config solver."""

import pytest

from repro.drs import DrsConfig
from repro.engine import get_spec


def test_for_deployment_meets_target():
    cfg = DrsConfig.for_deployment(10, detection_target_s=1.0)
    assert cfg.detection_bound_s() <= 1.0 + 1e-9
    assert cfg.bandwidth_budget <= 0.15


def test_for_deployment_infeasible_explains():
    with pytest.raises(ValueError, match="infeasible"):
        DrsConfig.for_deployment(200, detection_target_s=0.5, budget_cap=0.10)


def test_for_deployment_floor_and_cap_validation():
    with pytest.raises(ValueError, match="floor"):
        DrsConfig.for_deployment(10, detection_target_s=0.01)
    with pytest.raises(ValueError, match="budget_cap"):
        DrsConfig.for_deployment(10, detection_target_s=1.0, budget_cap=0)


def test_for_deployment_boundary_matches_figure1():
    # the solver's largest feasible N should track the Figure-1 read-off:
    # detection 1s at retries=2 means sweep (1-0.02)/2 = 0.49s, so the
    # comparable max_nodes_within(0.49, 0.15)
    from repro.analysis import max_nodes_within

    n = 2
    while True:
        try:
            DrsConfig.for_deployment(n, 1.0, budget_cap=0.15)
            n += 1
        except ValueError:
            break
    largest = n - 1
    assert largest == max_nodes_within(0.49, 0.15)


def test_scaling_experiment_shape():
    result = get_spec("scaling").run(n_values=(4, 8), sweep_period_s=0.3)
    rows = result.tables["scaling"].rows
    assert len(rows) == 2
    latencies = [r[1] for r in rows]
    loads = [r[2] for r in rows]
    # latency roughly constant; load grows superlinearly with N
    assert abs(latencies[0] - latencies[1]) < 0.6
    assert loads[1] > loads[0] * 2.5
    feasible = result.tables["feasibility"].rows[0]
    assert feasible[2] > 12  # the deployed range is comfortably feasible
