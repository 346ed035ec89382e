"""Tests for Equation 1: exactness, paper checkpoints, limiting behaviour."""

import pytest

from repro.analysis import (
    bad_combinations,
    comb0,
    covering_nic_failures,
    crossover_n,
    enumerate_success_probability,
    good_combinations,
    success_curve,
    success_probability,
    total_combinations,
)


# ------------------------------------------------------------- combinatorics
def test_comb0_matches_math_comb_in_domain():
    from math import comb

    assert comb0(10, 3) == comb(10, 3)
    assert comb0(0, 0) == 1


def test_comb0_zero_outside_domain():
    assert comb0(5, 7) == 0
    assert comb0(-1, 0) == 0
    assert comb0(5, -2) == 0


def test_covering_nic_failures_small_cases():
    # m=1: one node, must hit it: j=1 -> 2 ways (either NIC), j=2 -> 1 way
    assert covering_nic_failures(1, 1) == 2
    assert covering_nic_failures(1, 2) == 1
    # m=2, j=2: each node loses exactly one NIC: 2*2
    assert covering_nic_failures(2, 2) == 4
    # m=2, j=3: one node loses both, other loses one: C(2,1)*2
    assert covering_nic_failures(2, 3) == 4
    assert covering_nic_failures(2, 4) == 1


def test_covering_nic_failures_out_of_range():
    assert covering_nic_failures(3, 2) == 0  # j < m: cannot hit all
    assert covering_nic_failures(2, 5) == 0  # j > 2m
    assert covering_nic_failures(-1, 0) == 0


def test_covering_nic_failures_brute_force():
    from itertools import combinations

    for m in range(1, 5):
        for j in range(0, 2 * m + 1):
            count = sum(
                1
                for subset in combinations(range(2 * m), j)
                if all(any(x in subset for x in (2 * i, 2 * i + 1)) for i in range(m))
            )
            assert covering_nic_failures(m, j) == count, (m, j)


# ----------------------------------------------------------------- equation 1
@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_matches_exhaustive_enumeration(n):
    for f in range(0, min(2 * n + 2, 7) + 1):
        exact = success_probability(n, f)
        brute = enumerate_success_probability(n, f)
        assert exact == pytest.approx(brute, abs=1e-12), (n, f)


def test_paper_crossover_checkpoints():
    # the paper's prose: P[S] surpasses 0.99 at 18, 32, 45 nodes
    assert crossover_n(2) == 18
    assert crossover_n(3) == 32
    assert crossover_n(4) == 45


def test_zero_and_one_failure_always_survive():
    # single-component failures never disconnect a dual-backplane pair
    for n in (2, 5, 20):
        assert success_probability(n, 0) == 1.0
        assert success_probability(n, 1) == 1.0
        assert bad_combinations(n, 0) == 0
        assert bad_combinations(n, 1) == 0


def test_all_components_failed_never_survives():
    for n in (2, 4, 10):
        assert success_probability(n, 2 * n + 2) == 0.0


def test_f2_bad_count_closed_form():
    # hand count (DESIGN.md §2): 7 bad pairs independent of N (N >= 3)
    for n in (3, 10, 18, 50):
        assert bad_combinations(n, 2) == 7


def test_f3_bad_count_closed_form():
    # 14N - 10 for N >= 4 (no minimal bad triples beyond pair supersets)
    for n in (5, 10, 32):
        assert bad_combinations(n, 3) == 14 * n - 10


def test_good_plus_bad_equals_total():
    for n in (2, 5, 9):
        for f in range(0, 2 * n + 3):
            assert good_combinations(n, f) + bad_combinations(n, f) == total_combinations(n, f)


def test_monotone_increasing_in_n():
    for f in range(2, 11):
        previous = 0.0
        for n in range(f + 1, 64):
            p = success_probability(n, f)
            assert p >= previous - 1e-12, (n, f)
            previous = p


def test_monotone_decreasing_in_f():
    for n in (10, 30, 63):
        for f in range(0, 12):
            assert success_probability(n, f) >= success_probability(n, f + 1) - 1e-12


def test_convergence_to_one():
    # lim_{N->inf} P[S] = 1 for fixed f: check it is very close at large N
    for f in range(2, 11):
        assert success_probability(2000, f) > 0.9999


def test_success_curve_shape_and_domain():
    ns, ps = success_curve(f=5)
    assert ns[0] == 6 and ns[-1] == 63
    assert len(ns) == len(ps)
    assert ((0 <= ps) & (ps <= 1)).all()


def test_success_curve_custom_range_and_validation():
    ns, ps = success_curve(f=2, n_max=20, n_min=10)
    assert ns[0] == 10 and ns[-1] == 20
    with pytest.raises(ValueError, match="empty N range"):
        success_curve(f=2, n_max=5, n_min=10)
    # implicit n_min = f+1 beyond n_max is the same empty range
    with pytest.raises(ValueError, match="empty N range"):
        success_curve(f=12, n_max=10)


def test_expected_dark_pairs_linearity():
    from repro.analysis import expected_dark_pairs

    n, f = 10, 3
    pairs = n * (n - 1) // 2
    assert expected_dark_pairs(n, f) == pytest.approx(pairs * (1 - success_probability(n, f)))
    assert expected_dark_pairs(n, 0) == 0.0
    # shrinks as the cluster grows (for fixed f)
    assert expected_dark_pairs(60, 3) < expected_dark_pairs(10, 3) * (60 * 59) / (10 * 9)


def test_expected_dark_pairs_monte_carlo():
    import numpy as np

    from repro.analysis import expected_dark_pairs, pair_connected
    from repro.analysis.montecarlo import sample_failure_matrix

    n, f, iters = 6, 4, 4000
    rng = np.random.default_rng(0)
    failed = sample_failure_matrix(n, f, iters, rng)
    total_dark = 0
    for row in range(iters):
        failure_set = frozenset(np.flatnonzero(failed[row]).tolist())
        total_dark += sum(
            not pair_connected(failure_set, n, a, b)
            for a in range(n)
            for b in range(a + 1, n)
        )
    assert total_dark / iters == pytest.approx(expected_dark_pairs(n, f), rel=0.1)


def test_validation_errors():
    with pytest.raises(ValueError):
        success_probability(1, 2)
    with pytest.raises(ValueError):
        success_probability(5, -1)
    with pytest.raises(ValueError):
        success_probability(5, 13)
    with pytest.raises(ValueError):
        crossover_n(2, threshold=1.5)
