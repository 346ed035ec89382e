"""Tests for the all-pairs (whole-cluster) survivability model."""

import numpy as np
import pytest

from repro.analysis import (
    allpairs_good_combinations,
    allpairs_success_curve,
    allpairs_success_probability,
    enumerate_success_probability,
    simulate_topology_grid,
    success_probability,
)
from repro.analysis.allpairs import allpairs_connected_vec
from repro.analysis.montecarlo import sample_failure_matrix
from repro.topology import AllTerminalsConnected, dual_hub_cluster


@pytest.mark.parametrize("n", range(2, 7))
def test_closed_form_matches_exhaustive(n):
    for f in range(0, min(2 * n + 2, 6) + 1):
        exact = allpairs_success_probability(n, f)
        brute = enumerate_success_probability(n, f, all_pairs=True)
        assert exact == pytest.approx(brute, abs=1e-12), (n, f)


def test_allpairs_never_exceeds_pairwise():
    for n in (4, 10, 30):
        for f in range(0, 8):
            assert allpairs_success_probability(n, f) <= success_probability(n, f) + 1e-12


def test_zero_and_one_failure():
    for n in (2, 10, 50):
        assert allpairs_success_probability(n, 0) == 1.0
        assert allpairs_success_probability(n, 1) == 1.0


def test_converges_slower_than_pairwise():
    # fixed f still converges to 1, but visibly below Equation 1
    assert allpairs_success_probability(200, 4) > allpairs_success_probability(20, 4)
    for n in (20, 63):
        assert allpairs_success_probability(n, 4) < success_probability(n, 4) - 0.01


def test_curve_monotone_toward_one():
    ns, ps = allpairs_success_curve(f=4, n_max=63)
    assert (np.diff(ps) >= -1e-12).all()
    assert ps[-1] > ps[0]


def test_iid_allpairs_decays_with_cluster_size():
    # the qualitative divergence: under iid component failures, whole-cluster
    # availability eventually drops as N grows while pairwise rises
    from repro.analysis.availability import iid_allpairs_success_probability, iid_success_probability

    rho = 0.02
    ap_small = iid_allpairs_success_probability(6, rho)
    ap_large = iid_allpairs_success_probability(40, rho)
    assert ap_large < ap_small
    assert iid_success_probability(40, rho) > iid_success_probability(6, rho)


def test_vectorized_predicate_matches_scalar_enumeration():
    from repro.analysis import pair_connected

    rng = np.random.default_rng(3)
    n = 5
    for f in (2, 4, 6):
        failed = sample_failure_matrix(n, f, 300, rng)
        vec = allpairs_connected_vec(failed)
        for row in range(0, 300, 29):
            failed_set = frozenset(np.flatnonzero(failed[row]).tolist())
            scalar = all(
                pair_connected(failed_set, n, a, b)
                for a in range(n)
                for b in range(a + 1, n)
            )
            assert vec[row] == scalar, (f, row, sorted(failed_set))


def test_montecarlo_matches_closed_form():
    rng = np.random.default_rng(0)
    for n, f in [(6, 3), (12, 4)]:
        estimate = simulate_topology_grid(
            dual_hub_cluster(n), (f,), 100_000, rng, predicate=AllTerminalsConnected()
        )[f]
        exact = allpairs_success_probability(n, f)
        assert abs(estimate - exact) < 0.006, (n, f)


def test_good_combinations_edges():
    n = 5
    # f = n: exactly the two all-on-one-network cover sets + one-hub term
    assert allpairs_good_combinations(n, n) == 2 + 2 * 5  # C(5,4)=5
    # f > n with hubs up contributes nothing beyond the one-hub term
    assert allpairs_good_combinations(n, n + 1) == 2 * 1  # C(5,5)=1
    assert allpairs_good_combinations(n, 2 * n + 2) == 0


def test_validation():
    with pytest.raises(ValueError):
        allpairs_success_probability(1, 0)
    with pytest.raises(ValueError):
        allpairs_success_curve(f=2, n_max=3, n_min=10)
