"""Tests for kind-weighted failure sampling."""

import numpy as np
import pytest

from repro.analysis import (
    hub_nic_weight_ratio,
    simulate_weighted_success,
    success_probability,
    weighted_failure_matrix,
)


def test_matrix_shape_and_row_sums():
    rng = np.random.default_rng(0)
    failed = weighted_failure_matrix(8, 3, 400, rng, hub_weight=5.0)
    assert failed.shape == (400, 18)
    assert (failed.sum(axis=1) == 3).all()


def test_equal_weights_reduce_to_uniform():
    rng = np.random.default_rng(1)
    n, f = 10, 3
    est = simulate_weighted_success(n, f, 150_000, rng, hub_weight=1.0, nic_weight=1.0)
    assert abs(est - success_probability(n, f)) < 0.006


def test_heavier_hubs_fail_more_often():
    rng = np.random.default_rng(2)
    failed = weighted_failure_matrix(10, 2, 40_000, rng, hub_weight=10.0, nic_weight=1.0)
    hub_marginal = failed[:, :2].mean()
    nic_marginal = failed[:, 2:].mean()
    assert hub_marginal > 3 * nic_marginal


def test_heavier_hubs_reduce_survivability():
    # both hubs failing kills the pair, so hub-biased draws hurt
    rng = np.random.default_rng(3)
    n, f = 10, 3
    uniform = simulate_weighted_success(n, f, 80_000, np.random.default_rng(3))
    hubby = simulate_weighted_success(n, f, 80_000, np.random.default_rng(3), hub_weight=20.0)
    assert hubby < uniform


def test_weight_ratio_from_fleet_shares():
    # 0.07 across 2n NICs vs 0.04 across 2 hubs: per-hub weight dominates
    ratio = hub_nic_weight_ratio(10)
    assert ratio == pytest.approx((0.04 / 2) / (0.07 / 20))
    assert ratio > 1
    with pytest.raises(ValueError):
        hub_nic_weight_ratio(0)


def test_marginals_track_weights_quantitatively():
    # with f=1, inclusion probability is exactly w_i / sum(w)
    rng = np.random.default_rng(4)
    n, hub_w = 5, 4.0
    failed = weighted_failure_matrix(n, 1, 60_000, rng, hub_weight=hub_w)
    total_w = 2 * hub_w + 2 * n
    assert failed[:, 0].mean() == pytest.approx(hub_w / total_w, abs=0.005)
    assert failed[:, 5].mean() == pytest.approx(1.0 / total_w, abs=0.005)


def test_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        weighted_failure_matrix(1, 1, 10, rng)
    with pytest.raises(ValueError):
        weighted_failure_matrix(5, 99, 10, rng)
    with pytest.raises(ValueError):
        weighted_failure_matrix(5, 2, 0, rng)
    with pytest.raises(ValueError):
        weighted_failure_matrix(5, 2, 10, rng, hub_weight=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", ["hub_weight", "nic_weight"])
def test_non_finite_weights_are_refused_by_name(kind, bad):
    """``nan <= 0`` is False: a NaN weight used to pass both checks and estimate 0.0."""
    with pytest.raises(ValueError, match=f"{kind}.*{bad}"):
        weighted_failure_matrix(8, 3, 10, np.random.default_rng(0), **{kind: bad})
    with pytest.raises(ValueError, match=f"{kind}.*{bad}"):
        simulate_weighted_success(8, 3, 2000, np.random.default_rng(0), **{kind: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_topology_refuses_a_non_finite_site_weight_by_name(bad):
    from dataclasses import replace

    from repro.topology import dual_hub_cluster

    topology = dual_hub_cluster(3)
    weights = (1.0,) * 5 + (bad,) + (1.0,) * 2
    with pytest.raises(ValueError, match=f"failure weights must be positive and finite.*{bad}"):
        replace(topology, weights=weights)
