"""Property-based tests (hypothesis) for the variance-reduction layer.

Three families of invariants:

* trial allocation — largest-remainder apportionment conserves the budget,
  floors every sampled stratum at one trial, and starves zero-score strata;
* conditional sampling — every row of the hub-conditional sampler is a
  valid member of its stratum's family, and the closed-form conditional
  success probabilities agree with exhaustive enumeration at n = 2, 3 for
  every f and stratum;
* kernel equivalences — the NIC-only level kernels agree with
  ``pair_connected_vec`` at every f over the same draw, and the padded
  full-grid pass is float-identical to per-N ``simulate_grid`` runs on any
  (N, f)-subset slice for every estimator method.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    hub_stratum_weights,
    simulate_full_grid,
    simulate_grid,
    success_probability,
)
from repro.analysis.montecarlo import pair_connected_vec
from repro.analysis.variance import (
    allocate_stratum_trials,
    both_hubs_up_conditional_success,
    endpoint_dead_levels,
    nic_connectivity_levels,
    one_hub_conditional_success,
    sample_conditional_failure_matrix,
)
from tests.analysis.test_sweep_kernel import (
    LAYOUT_SIZES,
    kernel_inputs,
    level_blocks,
    split_levels,
)


# ------------------------------------------------------- trial allocation


@st.composite
def allocation_inputs(draw):
    """A budget and a score vector with at least one positive entry."""
    scores = draw(
        st.lists(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=8)
    )
    if not any(s > 0 for s in scores):
        scores[draw(st.integers(0, len(scores) - 1))] = 1.0
    positive = sum(1 for s in scores if s > 0)
    total = draw(st.integers(positive, positive + 10_000))
    return total, scores


@settings(max_examples=200, deadline=None)
@given(args=allocation_inputs())
def test_allocations_conserve_the_budget(args):
    total, scores = args
    allocations = allocate_stratum_trials(total, scores)
    assert len(allocations) == len(scores)
    assert sum(allocations) == total
    for allocation, score in zip(allocations, scores):
        assert allocation >= 0
        if score > 0:
            assert allocation >= 1  # a sampled stratum never gets zero trials
        else:
            assert allocation == 0  # an impossible stratum never costs a trial


@settings(max_examples=50, deadline=None)
@given(
    scores=st.lists(st.floats(0.01, 100.0, allow_nan=False), min_size=2, max_size=5),
    total=st.integers(100, 10_000),
)
def test_allocations_track_score_proportions(scores, total):
    allocations = allocate_stratum_trials(total, scores)
    weight_sum = sum(scores)
    remainder = total - len(scores)  # after the one-trial-per-stratum floor
    for allocation, score in zip(allocations, scores):
        # largest-remainder rounding stays within one trial of the floor
        # plus the proportional share of what the floor left over
        assert abs(allocation - (1 + remainder * score / weight_sum)) <= 1.0


# ---------------------------------------------------- conditional sampling


@st.composite
def conditional_inputs(draw):
    """Valid (n, f, stratum, iterations) for the hub-conditional sampler."""
    n = draw(st.integers(2, 30))
    stratum = draw(st.integers(0, 2))
    f = draw(st.integers(stratum, 2 * n + stratum))
    iterations = draw(st.integers(1, 100))
    return n, f, stratum, iterations


@settings(max_examples=80, deadline=None)
@given(args=conditional_inputs(), seed=st.integers(0, 2**32 - 1))
def test_every_conditional_row_is_in_its_stratum(args, seed):
    n, f, stratum, iterations = args
    failed = sample_conditional_failure_matrix(
        n, f, stratum, iterations, rng=np.random.default_rng(seed)
    )
    assert failed.shape == (iterations, 2 * n + 2)
    assert failed.dtype == np.bool_
    assert (failed.sum(axis=1) == f).all()
    assert (failed[:, :2].sum(axis=1) == stratum).all()
    assert (failed[:, 2:].sum(axis=1) == f - stratum).all()


@settings(max_examples=40, deadline=None)
@given(args=conditional_inputs(), seed=st.integers(0, 2**32 - 1))
def test_conditional_sampling_is_deterministic_for_a_seed(args, seed):
    n, f, stratum, iterations = args
    a = sample_conditional_failure_matrix(n, f, stratum, iterations, np.random.default_rng(seed))
    b = sample_conditional_failure_matrix(n, f, stratum, iterations, np.random.default_rng(seed))
    np.testing.assert_array_equal(a, b)


def _conditional_oracle(n: int, f: int, stratum: int, two_hop: bool) -> float:
    """Exhaustive conditional success: every failure set in the stratum."""
    width = 2 * n + 2
    rows = []
    for hubs in itertools.combinations(range(2), stratum):
        for nics in itertools.combinations(range(2, width), f - stratum):
            row = np.zeros(width, dtype=bool)
            row[list(hubs)] = True
            row[list(nics)] = True
            rows.append(row)
    survived = pair_connected_vec(np.array(rows), two_hop=two_hop)
    return float(survived.mean())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("two_hop", [True, False])
def test_closed_form_conditionals_match_exhaustive_oracle(n, two_hop):
    width = 2 * n + 2
    for f in range(0, width + 1):
        for stratum in range(0, 3):
            if f - stratum < 0 or f - stratum > 2 * n:
                continue
            oracle = _conditional_oracle(n, f, stratum, two_hop)
            if stratum == 2:
                assert oracle == 0.0, (f, stratum)
            elif stratum == 1:
                # one hub down disables the two-hop repair entirely, so the
                # closed form is two_hop-independent
                assert oracle == pytest.approx(one_hub_conditional_success(n, f), abs=1e-12)
            else:
                assert oracle == pytest.approx(
                    both_hubs_up_conditional_success(n, f, two_hop=two_hop), abs=1e-12
                ), (f, stratum)


@pytest.mark.parametrize("n", [2, 3])
def test_stratum_decomposition_reassembles_equation1_exhaustively(n):
    for f in range(0, 2 * n + 3):
        weights = hub_stratum_weights(n, f)
        total = sum(
            w * _conditional_oracle(n, f, j, True)
            for j, w in enumerate(weights)
            if w > 0
        )
        assert total == pytest.approx(success_probability(n, f), abs=1e-12), f


# ----------------------------------------------------- kernel equivalences


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), two_hop=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_nic_levels_agree_with_pair_connected_vec_at_every_f(n, two_hop, seed):
    rng = np.random.default_rng(seed)
    keys = rng.random((200, 2 * n))
    ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
    levels = nic_connectivity_levels(keys, two_hop=two_hop)
    dead_levels = endpoint_dead_levels(keys)
    for f in range(0, 2 * n + 1):
        failed = np.zeros((200, 2 * n + 2), dtype=bool)
        failed[:, 2:] = ranks < f  # both hubs stay up: the stratum-0 world
        expected = pair_connected_vec(failed, two_hop=two_hop)
        np.testing.assert_array_equal(levels >= f, expected)
        dead = (failed[:, 2] & failed[:, 3]) | (failed[:, 4] & failed[:, 5])
        np.testing.assert_array_equal(dead_levels < f, dead)


# NIC-only widths are 2N: N = 127 is 254 (still uint8), N = 130 is 260 (past it)
@pytest.mark.parametrize("sizes", LAYOUT_SIZES.values(), ids=LAYOUT_SIZES)
@pytest.mark.parametrize("two_hop", [True, False])
def test_nic_levels_agree_with_oracles_on_every_tile_layout(sizes, two_hop):
    blocks = level_blocks(sizes, lambda n: 2 * n)
    for layout, keys, widths in kernel_inputs(blocks):
        levels = nic_connectivity_levels(keys, two_hop=two_hop, widths=widths)
        dead_levels = endpoint_dead_levels(keys, widths=widths)
        assert levels.dtype == dead_levels.dtype == np.intp
        for (width, ranks, got), (_, _, dead_got) in zip(
            split_levels(levels, blocks), split_levels(dead_levels, blocks)
        ):
            for f in range(width + 1):
                failed = np.zeros((len(ranks), width + 2), dtype=bool)
                failed[:, 2:] = ranks < f  # both hubs stay up: the stratum-0 world
                expected = pair_connected_vec(failed, two_hop=two_hop)
                assert ((got >= f) == expected).all(), (layout, width, f)
                dead = (failed[:, 2] & failed[:, 3]) | (failed[:, 4] & failed[:, 5])
                assert ((dead_got < f) == dead).all(), (layout, width, f)


@st.composite
def full_grid_inputs(draw):
    """A random (N, f)-subset of the small grid plus an estimator method."""
    ns = tuple(sorted(draw(st.sets(st.integers(4, 12), min_size=1, max_size=4))))
    fs = tuple(sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))))
    method = draw(st.sampled_from(["crn", "stratified", "stratified-cv"]))
    iterations = draw(st.integers(50, 300))
    return ns, fs, method, iterations


@settings(max_examples=40, deadline=None)
@given(args=full_grid_inputs(), seed=st.integers(0, 2**31 - 1))
def test_padded_full_grid_slices_equal_per_n_runs(args, seed):
    ns, fs, method, iterations = args
    streams = {n: np.random.default_rng([seed, n]) for n in ns}
    grid = simulate_full_grid(ns, fs, iterations, streams, method=method)
    for n in ns:
        solo = simulate_grid(n, fs, iterations, np.random.default_rng([seed, n]), method=method)
        assert grid[n] == solo, (method, n)
