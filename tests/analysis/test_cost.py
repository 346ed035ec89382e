"""Tests for the Figure-1 proactive-cost model."""

import numpy as np
import pytest

from repro.analysis import (
    max_nodes_within,
    response_time_curve,
    sweep_time_s,
)


def test_probe_bits_per_sweep():
    # n(n-1) ordered pairs, request+reply, 84 wire bytes each: one second per bit at 1 b/s
    assert sweep_time_s(10, 1.0, bandwidth_bps=1.0) == 10 * 9 * 2 * 84 * 8
    with pytest.raises(ValueError):
        sweep_time_s(1, 1.0)


def test_paper_checkpoint_90_hosts_10_percent():
    # "ninety hosts are supported in less than 1 second with only 10% of
    # the bandwidth usage" -- our calibration puts 90 hosts at ~1.08 s and
    # 89 hosts under 1 s; the shape matches within one node.
    t90 = sweep_time_s(90, budget=0.10)
    assert 0.9 < t90 < 1.2
    assert max_nodes_within(1.1, budget=0.10) >= 90


def test_sweep_time_quadratic_in_n():
    assert sweep_time_s(40, 0.1) / sweep_time_s(20, 0.1) == pytest.approx(40 * 39 / (20 * 19))


def test_sweep_time_inverse_in_budget_and_bandwidth():
    assert sweep_time_s(30, 0.05) == pytest.approx(2 * sweep_time_s(30, 0.10))
    assert sweep_time_s(30, 0.10, bandwidth_bps=1e9) == pytest.approx(sweep_time_s(30, 0.10) / 10)


def test_sweep_time_vectorized():
    ns = np.array([10, 20, 40])
    ts = sweep_time_s(ns, 0.10)
    assert ts.shape == (3,)
    assert (np.diff(ts) > 0).all()


def test_max_nodes_consistent_with_sweep_time():
    for budget in (0.05, 0.10, 0.15, 0.25):
        for deadline in (0.5, 1.0, 2.0):
            n = max_nodes_within(deadline, budget)
            assert sweep_time_s(n, budget) <= deadline + 1e-9
            assert sweep_time_s(n + 1, budget) > deadline


def test_max_nodes_monotone_in_budget():
    ns = [max_nodes_within(1.0, b) for b in (0.05, 0.10, 0.15, 0.25)]
    assert ns == sorted(ns)
    assert ns[0] < ns[-1]


def test_response_time_curve_families():
    curves = response_time_curve(range(2, 100), budgets=[0.05, 0.10, 0.25])
    assert set(curves) == {0.05, 0.10, 0.25}
    # at every N, a bigger budget responds faster
    assert (curves[0.25] < curves[0.05]).all()


def test_frame_size_sensitivity_monotone():
    from repro.analysis import frame_size_sensitivity

    rows = frame_size_sensitivity()
    sizes = [r[0] for r in rows]
    max_nodes = [r[1] for r in rows]
    sweep_90 = [r[2] for r in rows]
    assert sizes == sorted(sizes)
    # bigger probes -> fewer nodes fit, longer sweeps
    assert max_nodes == sorted(max_nodes, reverse=True)
    assert sweep_90 == sorted(sweep_90)
    # our 84-byte calibration is in the sweep
    assert 84 in sizes


def test_validation_errors():
    with pytest.raises(ValueError):
        sweep_time_s(10, 0.0)
    with pytest.raises(ValueError):
        sweep_time_s(10, 1.5)
    with pytest.raises(ValueError):
        sweep_time_s(1, 0.1)
    with pytest.raises(ValueError):
        sweep_time_s(10, 0.1, bandwidth_bps=0)
    with pytest.raises(ValueError):
        max_nodes_within(0, 0.1)
    with pytest.raises(ValueError):
        max_nodes_within(1.0, 0)
