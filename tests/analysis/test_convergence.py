"""Tests for the Figure-3 convergence study: ``mean_absolute_deviation_grid``, as ``figure3.py`` calls it."""

import numpy as np
import pytest

from repro.analysis import mean_absolute_deviation_grid
from repro.engine import get_spec


def test_mad_positive_and_bounded():
    mad = mean_absolute_deviation_grid((3,), 100, n_max=20, seed=0)[3]
    assert 0 <= mad <= 1


def test_mad_shrinks_with_iterations():
    # the paper's claim: MAD converges to 0 as iterations grow
    coarse = mean_absolute_deviation_grid((2,), 30, n_max=30, seed=1)[2]
    fine = mean_absolute_deviation_grid((2,), 10_000, n_max=30, seed=1)[2]
    assert fine < coarse


def test_mad_at_1000_iterations_below_paper_bound():
    # "With 1,000 iterations, the mean absolute difference is less than
    # [0.01] for each of the fixed f values" (f = 2..10, f < N < 64)
    for f, mad in mean_absolute_deviation_grid((2, 6, 10), 1_000, seed=2).items():
        assert mad < 0.01, (f, mad)


def test_mad_at_1000_iterations_for_every_f():
    mads = mean_absolute_deviation_grid(tuple(range(2, 11)), 1_000, seed=2000)
    assert sorted(mads) == list(range(2, 11))
    for f, mad in mads.items():
        assert mad < 0.01, (f, mad)


def test_mad_scales_like_one_over_sqrt_iterations():
    coarse = mean_absolute_deviation_grid((3,), 100, n_max=40, seed=0)[3]
    fine = mean_absolute_deviation_grid((3,), 10_000, n_max=40, seed=0)[3]
    # 100x the samples -> ~10x less error; generous slack
    assert 3 < coarse / fine < 40


def test_mad_empty_domain_raises():
    with pytest.raises(ValueError, match="empty N domain for f=10"):
        mean_absolute_deviation_grid((10,), 10, n_max=10, seed=0)
    with pytest.raises(ValueError, match="empty N domain for f=10"):
        mean_absolute_deviation_grid((2, 10), 10, n_max=10, seed=0)


def test_convergence_study_grid_and_series():
    # Figure 3's study, as the experiment assembles it: one MAD per (f, iteration count)
    result = get_spec("figure3").run(f_values=(2, 3), iteration_grid=(10, 100), n_max=15)
    curves = result.series["mad"].curves
    assert sorted(curves) == ["f=2", "f=3"]
    for xs, mad in curves.values():
        assert xs.tolist() == [10.0, 100.0]
        assert mad.shape == (2,) and (np.asarray(mad) >= 0).all()
