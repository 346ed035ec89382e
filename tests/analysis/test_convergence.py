"""Tests for the Figure-3 convergence study."""

import numpy as np
import pytest

from repro.analysis import convergence_study, mean_absolute_deviation


def test_mad_positive_and_bounded():
    rng = np.random.default_rng(0)
    mad = mean_absolute_deviation(f=3, iterations=100, rng=rng, n_max=20)
    assert 0 <= mad <= 1


def test_mad_shrinks_with_iterations():
    # the paper's claim: MAD converges to 0 as iterations grow
    rng = np.random.default_rng(1)
    coarse = mean_absolute_deviation(f=2, iterations=30, rng=rng, n_max=30)
    fine = mean_absolute_deviation(f=2, iterations=10_000, rng=rng, n_max=30)
    assert fine < coarse


def test_mad_at_1000_iterations_below_paper_bound():
    # "With 1,000 iterations, the mean absolute difference is less than
    # [0.01] for each of the fixed f values" (f = 2..10, f < N < 64)
    rng = np.random.default_rng(2)
    for f in (2, 6, 10):
        mad = mean_absolute_deviation(f=f, iterations=1_000, rng=rng)
        assert mad < 0.01, (f, mad)


def test_mad_at_1000_iterations_for_every_f():
    rng = np.random.default_rng(2000)
    for f in range(2, 11):
        mad = mean_absolute_deviation(f, 1_000, rng)
        assert mad < 0.012, (f, mad)


def test_mad_scales_like_one_over_sqrt_iterations():
    rng = np.random.default_rng(0)
    coarse = mean_absolute_deviation(3, 100, rng, n_max=40)
    fine = mean_absolute_deviation(3, 10_000, rng, n_max=40)
    # 100x the samples -> ~10x less error; generous slack
    assert 3 < coarse / fine < 40


def test_mad_empty_domain_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mean_absolute_deviation(f=10, iterations=10, rng=rng, n_max=10)


def test_convergence_study_grid_and_series():
    rng = np.random.default_rng(3)
    study = convergence_study([2, 3], [10, 100], rng, n_max=15)
    assert study.mad.shape == (2, 2)
    assert (study.mad >= 0).all()
    assert study.series(3).shape == (2,)
    assert study.f_values == (2, 3)
    assert study.iteration_grid == (10, 100)
