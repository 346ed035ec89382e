"""Property-based tests (hypothesis) on the survivability model's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    bad_combinations,
    comb0,
    covering_nic_failures,
    enumerate_success_probability,
    good_combinations,
    success_probability,
    total_combinations,
)


@given(n=st.integers(2, 200), f=st.integers(0, 20))
def test_probability_always_in_unit_interval(n, f):
    f = min(f, 2 * n + 2)
    p = success_probability(n, f)
    assert 0.0 <= p <= 1.0


@given(n=st.integers(2, 100), f=st.integers(0, 20))
def test_counts_are_nonnegative_and_partition_total(n, f):
    f = min(f, 2 * n + 2)
    bad = bad_combinations(n, f)
    good = good_combinations(n, f)
    assert bad >= 0 and good >= 0
    assert bad + good == total_combinations(n, f)


@given(n=st.integers(3, 120), f=st.integers(2, 10))
def test_monotone_in_n(n, f):
    from hypothesis import assume

    assume(f <= 2 * n + 2)
    # adding a node (more intermediates, more components) never hurts the pair
    assert success_probability(n + 1, f) >= success_probability(n, f) - 1e-12


@given(n=st.integers(6, 120), f=st.integers(0, 9))
def test_monotone_in_f(n, f):
    # one more simultaneous failure never helps
    assert success_probability(n, f) >= success_probability(n, f + 1) - 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), f=st.integers(0, 6))
def test_closed_form_equals_enumeration(n, f):
    f = min(f, 2 * n + 2)
    assert abs(success_probability(n, f) - enumerate_success_probability(n, f)) < 1e-12


@given(m=st.integers(0, 12), j=st.integers(0, 30))
def test_covering_failures_bounded_by_all_subsets(m, j):
    t = covering_nic_failures(m, j)
    assert 0 <= t <= comb0(2 * m, j)


@given(m=st.integers(0, 10))
def test_covering_failures_sum_is_inclusion_exclusion_total(m):
    # summing T(m, j) over j counts all subsets hitting every node:
    # total = sum_k C(m,k)(-1)^k 4^(m-k) ... equivalently 3^m subsets per node
    # choice pattern: each node contributes {nic0}, {nic1}, or {both}
    assert sum(covering_nic_failures(m, j) for j in range(0, 2 * m + 1)) == 3**m


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 20), f=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_montecarlo_within_coarse_bounds(n, f, seed):
    from repro.analysis import simulate_grid

    f = min(f, 2 * n + 2)
    rng = np.random.default_rng(seed)
    estimate = simulate_grid(n, (f,), 3_000, rng)[f]
    exact = success_probability(n, f)
    # 3000 iterations: 5 sigma of a Bernoulli(p) mean is < 0.046
    assert abs(estimate - exact) < 0.06


@given(
    n=st.integers(2, 40),
    f=st.integers(0, 12),
    data=st.data(),
)
def test_failure_matrix_rows_exact(n, f, data):
    from repro.analysis import sample_failure_matrix

    f = min(f, 2 * n + 2)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    failed = sample_failure_matrix(n, f, 64, rng)
    assert (failed.sum(axis=1) == f).all()
