"""Tests for the vectorized Monte Carlo estimator."""

import numpy as np
import pytest

from repro.analysis import sample_failure_matrix, simulate_grid, success_probability
from repro.analysis.montecarlo import pair_connected_vec


def test_sample_matrix_shape_and_row_sums():
    rng = np.random.default_rng(0)
    failed = sample_failure_matrix(n=10, f=4, iterations=500, rng=rng)
    assert failed.shape == (500, 22)
    assert (failed.sum(axis=1) == 4).all()


def test_sample_matrix_f_zero_and_full():
    rng = np.random.default_rng(0)
    assert sample_failure_matrix(5, 0, 10, rng).sum() == 0
    assert (sample_failure_matrix(5, 12, 10, rng).sum(axis=1) == 12).all()


def test_sample_matrix_uniform_marginals():
    # each component fails with marginal probability f / (2n+2)
    rng = np.random.default_rng(1)
    n, f, iters = 6, 3, 40_000
    failed = sample_failure_matrix(n, f, iters, rng)
    marginals = failed.mean(axis=0)
    expected = f / (2 * n + 2)
    assert np.allclose(marginals, expected, atol=0.01)


def test_sample_matrix_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_failure_matrix(1, 1, 10, rng)
    with pytest.raises(ValueError):
        sample_failure_matrix(5, 13, 10, rng)
    with pytest.raises(ValueError):
        sample_failure_matrix(5, 2, 0, rng)


def test_vectorized_predicate_agrees_with_scalar():
    from repro.analysis import pair_connected

    rng = np.random.default_rng(7)
    n = 6
    for f in (2, 3, 5, 8):
        failed = sample_failure_matrix(n, f, 400, rng)
        vec = pair_connected_vec(failed)
        for row in range(0, 400, 37):
            failed_set = frozenset(np.flatnonzero(failed[row]).tolist())
            assert vec[row] == pair_connected(failed_set, n), (f, row, sorted(failed_set))


def test_estimator_converges_to_equation(seeded=3):
    rng = np.random.default_rng(seeded)
    for n, f in [(10, 2), (20, 3), (30, 4)]:
        estimate = simulate_grid(n, (f,), 200_000, rng)[f]
        exact = success_probability(n, f)
        # 200k iterations: sampling error well under 0.005
        assert abs(estimate - exact) < 0.005, (n, f, estimate, exact)


def test_estimator_batching_equivalent_total():
    rng = np.random.default_rng(5)
    est = simulate_grid(8, (3,), 10_000, rng, batch=999)[3]
    assert 0.0 <= est <= 1.0


def test_two_hop_ablation_reduces_success():
    rng = np.random.default_rng(9)
    n, f = 12, 4
    with_hops = simulate_grid(n, (f,), 50_000, np.random.default_rng(9))[f]
    without = simulate_grid(n, (f,), 50_000, np.random.default_rng(9), two_hop=False)[f]
    assert without < with_hops


def test_reproducible_with_same_seed():
    a = simulate_grid(10, (3,), 5_000, np.random.default_rng(42))[3]
    b = simulate_grid(10, (3,), 5_000, np.random.default_rng(42))[3]
    assert a == b
