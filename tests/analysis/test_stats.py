"""Tests for Wilson intervals and precision-targeted Monte Carlo."""

import numpy as np
import pytest

from repro.analysis import (
    normal_ppf,
    simulate_grid,
    success_probability,
    wilson_interval,
)
from repro.analysis.stats import _Z_TABLE, _z_for


def test_wilson_basic_properties():
    est = wilson_interval(80, 100)
    assert est.point == 0.8
    assert est.low < 0.8 < est.high
    assert 0 <= est.low <= est.high <= 1
    assert est.half_width == pytest.approx((est.high - est.low) / 2)


def test_wilson_edge_counts():
    zero = wilson_interval(0, 50)
    assert zero.low == 0.0 and zero.high > 0.0
    full = wilson_interval(50, 50)
    assert full.high == 1.0 and full.low < 1.0


def test_wilson_narrows_with_trials():
    small = wilson_interval(8, 10)
    large = wilson_interval(8000, 10000)
    assert large.half_width < small.half_width


def test_wilson_confidence_levels():
    n90 = wilson_interval(50, 100, confidence=0.90)
    n99 = wilson_interval(50, 100, confidence=0.99)
    assert n99.half_width > n90.half_width


def test_wilson_arbitrary_confidence_no_longer_raises():
    # the z table used to be the only source; 0.42 was a ValueError
    n42 = wilson_interval(50, 100, confidence=0.42)
    n95 = wilson_interval(50, 100, confidence=0.95)
    assert 0 < n42.half_width < n95.half_width


def test_normal_ppf_matches_known_quantiles():
    # published two-sided z values at the classic confidence levels
    known = {0.975: 1.959964, 0.95: 1.644854, 0.995: 2.575829, 0.9995: 3.290527}
    for p, z in known.items():
        assert normal_ppf(p) == pytest.approx(z, abs=5e-6)
    # symmetry and the tail branches
    assert normal_ppf(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_ppf(0.01) == pytest.approx(-normal_ppf(0.99), rel=1e-9)
    assert normal_ppf(1e-9) == pytest.approx(-5.997807, abs=1e-4)
    with pytest.raises(ValueError):
        normal_ppf(0.0)
    with pytest.raises(ValueError):
        normal_ppf(1.0)


def test_z_for_table_levels_stay_bit_identical():
    # legacy levels must keep their exact published constants, so every
    # interval recorded before the inverse-normal fallback stays bit-equal
    for confidence, z in _Z_TABLE.items():
        assert _z_for(confidence) == z
    # near-misses of a table key fall through to the (more exact) ppf
    assert _z_for(0.95 + 1e-6) != _Z_TABLE[0.95]
    assert _z_for(0.95 + 1e-6) == pytest.approx(1.9600, abs=1e-3)


def test_z_for_fallback_tracks_normal_ppf():
    for confidence in (0.5, 0.8, 0.975, 0.9973):
        assert _z_for(confidence) == pytest.approx(
            normal_ppf((1 + confidence) / 2), rel=1e-12
        )
    with pytest.raises(ValueError):
        _z_for(0.0)
    with pytest.raises(ValueError):
        _z_for(1.0)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_coverage_empirical():
    # ~95% of intervals should cover the true p
    rng = np.random.default_rng(0)
    p_true = 0.3
    covered = 0
    runs = 400
    for _ in range(runs):
        successes = rng.binomial(200, p_true)
        est = wilson_interval(int(successes), 200)
        covered += est.low <= p_true <= est.high
    assert covered / runs > 0.90


def test_mc_success_estimate_brackets_equation1():
    rng = np.random.default_rng(3)
    n, f = 12, 3
    # a success estimate at a requested precision: one adaptive cell of the grid
    est = simulate_grid(n, (f,), 10_000, rng, target_half_width=0.005)[f]
    exact = success_probability(n, f)
    assert est.half_width <= 0.005
    # generous 2x interval check: the CI should bracket the closed form
    margin = 2 * est.half_width
    assert est.point - margin <= exact <= est.point + margin
