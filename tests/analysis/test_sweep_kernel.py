"""The common-random-numbers sweep kernel: equivalence, invariants, hardening.

Four layers of evidence that one ``simulate_grid`` call is a faithful
drop-in for a family of per-point estimates, one per ``f``:

* exact predicate equivalence — the per-row breakdown threshold agrees with
  ``pair_connected_vec`` at *every* f over the same shared rank matrix;
* structural invariants of the shared draw — nested failure sets across f,
  and estimates monotone in f by construction;
* statistical equivalence — grid estimates agree with Equation 1 (and with
  the per-point estimator) within Wilson 99.9% intervals;
* regression tests for the estimator API hardening (iterations >= 1,
  rng=/seed= exclusivity of the Figure 3 study);
* the adaptive-stopping contract — a cell frozen at T trials is
  byte-identical to a fixed-count run at ``iterations=T`` (trial
  consumption is batching-invariant), its estimate still agrees with
  Equation 1 at Wilson 99.9%, and an exhausted budget returns the best
  estimate achieved.
"""

import numpy as np
import pytest

from repro.analysis import (
    connectivity_levels,
    failure_matrix_at,
    failure_rank_matrix,
    sample_failure_matrix,
    simulate_full_grid,
    simulate_grid,
    success_probability,
)
from repro.analysis.convergence import mean_absolute_deviation_grid
from repro.analysis.montecarlo import pair_connected_vec
from repro.analysis.stats import wilson_interval
from tests.conftest import grid_stream, keyed

PINNED_SEED = 424242


def _stream(n: int, seed: int = PINNED_SEED) -> np.random.Generator:
    """One independent stream per cluster size."""
    return grid_stream(seed, n)


# ---------------------------------------------------------------- exactness


@pytest.mark.parametrize("n", [2, 3, 6, 10])
@pytest.mark.parametrize("two_hop", [True, False])
def test_levels_equal_pair_connected_vec_at_every_f(n, two_hop):
    rng = np.random.default_rng(PINNED_SEED)
    ranks = failure_rank_matrix(n, 1_000, rng)
    levels = connectivity_levels(ranks, two_hop=two_hop)
    for f in range(0, 2 * n + 3):
        expected = pair_connected_vec(failure_matrix_at(ranks, f), two_hop=two_hop)
        assert ((levels >= f) == expected).all(), (n, f, two_hop)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_levels_identical_on_keys_and_on_ranks(n):
    # rank is a monotone transform of key order, so the kernel may skip the
    # argsort entirely: the critical-element expression must agree either way
    rng = np.random.default_rng(PINNED_SEED)
    width = 2 * n + 2
    keys = rng.random((800, width))
    order = np.argsort(keys, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(width)[None, :], axis=1)
    for two_hop in (True, False):
        assert (
            connectivity_levels(keys, two_hop=two_hop)
            == connectivity_levels(ranks, two_hop=two_hop)
        ).all()


# ------------------------------------------------------------ tile layouts


def draw_tile(keys):
    """``keys`` as the draw step hands a tile over: the ``.T`` of a site-major buffer."""
    sites = np.empty(keys.shape[::-1], dtype=keys.dtype)
    np.copyto(sites, keys.T)
    assert sites.T.flags.f_contiguous and not sites.T.flags.c_contiguous
    return sites.T


def kernel_inputs(blocks):
    """Every ``(layout, keys, widths)`` a level kernel is handed, over the same trials.

    ``blocks`` holds one ``(rows, width)`` key matrix per cluster size.  One
    block comes row-major (as a caller outside the draw step passes it) and
    as a draw tile; several are stacked into one tile right-padded to
    the widest, with the draw's pad (1.5, above every key) and with one
    below every key, which only the widths mask keeps out.
    """
    if len(blocks) == 1:
        yield "row-major", blocks[0], None
        yield "draw-tile", draw_tile(blocks[0]), None
        return
    widths = np.repeat([b.shape[1] for b in blocks], [len(b) for b in blocks])
    for pad in (1.5, -1.0):
        tile = np.full((len(widths), widths.max()), pad)
        for row, block in zip(np.cumsum([0] + [len(b) for b in blocks]), blocks):
            tile[row : row + len(block), : block.shape[1]] = block
        yield f"padded {pad} row-major", tile, widths
        yield f"padded {pad} draw-tile", draw_tile(tile), widths


def level_blocks(sizes, width_of):
    """Uniform key blocks, one per N, 64 rows each.

    The first eight rows fail their first six sites last, so their levels
    reach the top of the width (past 255 once the width is over 256).
    """
    rng = np.random.default_rng(PINNED_SEED)
    blocks = [rng.random((64, width_of(n))) for n in sizes]
    for block in blocks:
        block[:8, :6] += 1.0
    return blocks


def split_levels(levels, blocks):
    """The kernel's output cut back into one level vector per block, with its ranks."""
    cuts = np.cumsum([len(b) for b in blocks])[:-1]
    for block, got in zip(blocks, np.split(levels, cuts)):
        ranks = np.argsort(np.argsort(block, axis=1), axis=1)
        if block.shape[1] > 256:  # a uint8 count would wrap here
            assert got.max() > 255
        yield block.shape[1], ranks, got


#: single sizes, padded mixes (unsorted), and widths 256 and 262 past uint8
LAYOUT_SIZES = {"one": (6,), "mixed": (3, 10, 2, 6), "wide": (127,), "wide-mixed": (130, 3, 127)}


@pytest.mark.parametrize("sizes", LAYOUT_SIZES.values(), ids=LAYOUT_SIZES)
@pytest.mark.parametrize("two_hop", [True, False])
def test_levels_equal_pair_connected_vec_on_every_tile_layout(sizes, two_hop):
    blocks = level_blocks(sizes, lambda n: 2 * n + 2)
    for layout, keys, widths in kernel_inputs(blocks):
        levels = connectivity_levels(keys, two_hop=two_hop, widths=widths)
        assert levels.dtype == np.intp  # counted in uint8, returned as before
        for width, ranks, got in split_levels(levels, blocks):
            for f in range(width + 1):
                expected = pair_connected_vec(ranks < f, two_hop=two_hop)
                assert ((got >= f) == expected).all(), (layout, width, f)


# ------------------------------------------------------ structural invariants


def test_nested_failure_sets_across_f():
    rng = np.random.default_rng(PINNED_SEED)
    ranks = failure_rank_matrix(8, 500, rng)
    for f in range(1, 2 * 8 + 3):
        smaller = failure_matrix_at(ranks, f - 1)
        larger = failure_matrix_at(ranks, f)
        assert (larger.sum(axis=1) == f).all()
        assert (smaller <= larger).all(), f"level {f - 1} failures not nested in level {f}"


def test_failure_matrix_at_matches_sampler_distribution():
    # same marginals as sample_failure_matrix: each component fails f/(2n+2)
    rng = np.random.default_rng(PINNED_SEED)
    n, f, iters = 6, 3, 40_000
    nested = failure_matrix_at(failure_rank_matrix(n, iters, rng), f)
    assert np.allclose(nested.mean(axis=0), f / (2 * n + 2), atol=0.01)
    assert (nested.sum(axis=1) == f).all()


def test_grid_estimates_monotone_in_f_by_construction():
    estimates = simulate_grid(20, tuple(range(0, 43)), 5_000, _stream(20))
    values = list(estimates.values())
    assert values[0] == 1.0  # zero failures never disconnect the pair
    assert values[-1] == 0.0  # all components failed always does
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_grid_independent_of_f_subset():
    # one stream serves the whole f-grid: any f-slice reproduces the full sweep
    full = simulate_grid(15, (2, 3, 4, 5), 10_000, _stream(15))
    alone = simulate_grid(15, (4,), 10_000, _stream(15))
    assert full[4] == alone[4]


def test_grid_is_one_sampling_pass_whatever_the_f_grid():
    # what the grid call saves over per-f calls is len(fs) - 1 sampling
    # passes; a regression to per-f sampling moves the generator further
    fs = (2, 3, 4, 5, 6)
    grid, one_f, per_point = (np.random.default_rng(PINNED_SEED) for _ in range(3))
    simulate_grid(63, fs, 100_000, rng=grid)
    simulate_grid(63, (4,), 100_000, rng=one_f)
    for f in fs:
        simulate_grid(63, (f,), 100_000, per_point)
    assert grid.bit_generator.state == one_f.bit_generator.state
    assert per_point.bit_generator.state != grid.bit_generator.state


def test_grid_deterministic_for_seed_and_sensitive_to_it():
    a = simulate_grid(10, (2, 3), 5_000, _stream(10, 1))
    b = simulate_grid(10, (2, 3), 5_000, _stream(10, 1))
    c = simulate_grid(10, (2, 3), 5_000, _stream(10, 2))
    assert a == b
    assert a != c


def test_grid_batching_does_not_change_counts():
    one = simulate_grid(9, (2, 4), 7_000, rng=np.random.default_rng(3))
    split = simulate_grid(9, (2, 4), 7_000, rng=np.random.default_rng(3), batch=999)
    # same generator, same total draw count per batch element ordering differs;
    # estimates stay within a tight band of each other and of the exact value
    for f in (2, 4):
        assert abs(one[f] - split[f]) < 0.02


# ------------------------------------------------- statistical equivalence


@pytest.mark.parametrize("n,f", [(n, f) for n in (4, 8, 16) for f in (2, 3, 4)])
def test_grid_agrees_with_equation1_within_wilson_999(n, f):
    iterations = 20_000
    estimates = simulate_grid(n, (2, 3, 4), iterations, _stream(n))
    successes = round(estimates[f] * iterations)
    interval = wilson_interval(successes, iterations, confidence=0.999)
    exact = success_probability(n, f)
    assert interval.low <= exact <= interval.high, (
        f"n={n} f={f}: exact {exact:.6f} outside Wilson 99.9% CI "
        f"[{interval.low:.6f}, {interval.high:.6f}] around grid {estimates[f]:.6f}"
    )


@pytest.mark.parametrize("n,f", [(8, 3), (20, 5)])
def test_grid_agrees_with_per_point_within_wilson_999(n, f):
    iterations = 20_000
    grid = simulate_grid(n, (f,), iterations, _stream(n))[f]
    # the per-point reference: argpartition's f smallest keys, on its own stream
    failed = sample_failure_matrix(n, f, iterations, keyed(PINNED_SEED, f"mc/n={n}/f={f}"))
    point = pair_connected_vec(failed).mean()
    g = wilson_interval(round(grid * iterations), iterations, confidence=0.999)
    p = wilson_interval(round(point * iterations), iterations, confidence=0.999)
    # two independent estimators of the same quantity: intervals must overlap
    assert g.low <= p.high and p.low <= g.high, (n, f, grid, point)


def test_mad_grid_matches_per_f_mad_scale():
    alone = mean_absolute_deviation_grid((3,), 1_000, n_max=30, seed=PINNED_SEED)
    grid = mean_absolute_deviation_grid((2, 3, 4), 1_000, n_max=30, seed=PINNED_SEED)
    assert set(grid) == {2, 3, 4}
    # per-N streams keyed by N alone: the other f values change no draw of f=3's
    assert grid[3] == alone[3]
    assert 0 < grid[3] < 0.02


# -------------------------------------------------------- adaptive stopping


def test_adaptive_cell_byte_identical_to_fixed_run_at_stopped_count():
    # the reproducibility contract: whatever trial count a cell froze at,
    # a fixed-count run at exactly that count (same seed) is bit-equal
    cells = simulate_grid(
        12, (2, 5, 8), 1_000, _stream(12), target_half_width=0.01
    )
    for f, cell in cells.items():
        fixed = simulate_grid(12, (f,), cell.trials, _stream(12))
        assert fixed[f] == cell.point == cell.successes / cell.trials, (f, cell)


def test_adaptive_saves_397_of_1000_fixed_trials_at_equal_precision():
    # the figure-2 quick shape (one f-family per N row): trial counts at
    # equal precision are deterministic for the seed, so they are exact
    ns, fs, seed, budget = (7, 12, 17, 22, 27), (2, 3, 4, 5, 6), 2026, 200_000
    bar = max(
        cell.half_width
        for n in ns
        for cell in simulate_grid(n, fs, budget, _stream(n, seed), precision=True).values()
    )
    assert bar == pytest.approx(0.0021821635, abs=1e-10)
    rows = [
        simulate_grid(
            n, fs, 2_000, _stream(n, seed),
            target_half_width=bar, max_iterations=budget, batch=25_000,
        )
        for n in ns
    ]
    for cells in rows:
        assert all(c.met_target and c.half_width <= bar for c in cells.values())
    # CRN accounting: a row's sampling cost is the max over its cells
    spent = [max(c.trials for c in cells.values()) for cells in rows]
    assert spent == [200_000, 157_000, 107_000, 82_000, 57_000]
    assert sum(spent) == 603_000 and len(ns) * budget == 1_000_000  # 0.397 saved
    # and each cell is the fixed-count run at the count it stopped at
    cells = simulate_grid(
        17, fs, 2_000, _stream(17, seed), target_half_width=0.01, max_iterations=budget
    )
    for f, cell in cells.items():
        assert simulate_grid(17, (f,), cell.trials, _stream(17, seed))[f] == cell.point


def test_adaptive_cell_independent_of_f_subset():
    # the batch schedule depends only on (iterations, batch, budget), never
    # on which cells are still open, so each cell freezes at the same
    # boundary whether it runs alone or inside the full f-family
    full = simulate_grid(12, (2, 5, 8), 1_000, _stream(12), target_half_width=0.01)
    alone = simulate_grid(12, (5,), 1_000, _stream(12), target_half_width=0.01)
    assert alone[5].trials == full[5].trials
    assert alone[5].successes == full[5].successes


@pytest.mark.parametrize("f", [2, 3, 4])
def test_adaptive_agrees_with_equation1_within_wilson_999(f):
    cells = simulate_grid(
        16, (2, 3, 4), 2_000, _stream(16), target_half_width=0.008
    )
    cell = cells[f]
    interval = wilson_interval(cell.successes, cell.trials, confidence=0.999)
    exact = success_probability(16, f)
    assert interval.low <= exact <= interval.high, (
        f"f={f}: exact {exact:.6f} outside Wilson 99.9% CI "
        f"[{interval.low:.6f}, {interval.high:.6f}] around adaptive {cell.point:.6f} "
        f"({cell.trials} trials)"
    )


def test_adaptive_meets_target_and_reports_it():
    cells = simulate_grid(10, (2, 4, 6), 500, _stream(10), target_half_width=0.02)
    for cell in cells.values():
        assert cell.met_target
        assert cell.half_width <= 0.02
        assert cell.target_half_width == 0.02


def test_adaptive_budget_exhaustion_freezes_below_target():
    # an unreachably tight target: every cell must freeze at the budget,
    # marked unmet: best effort, not an error
    cells = simulate_grid(
        8, (3, 5), 1_000, _stream(8), target_half_width=1e-6, max_iterations=4_000
    )
    for cell in cells.values():
        assert cell.trials == 4_000
        assert not cell.met_target


def test_grid_batch_split_is_byte_identical():
    # numpy generators fill arrays from the stream in row-major order, so
    # chunking the draw differently cannot change any estimate — this is
    # the invariant the adaptive byte-identity contract rests on
    one = simulate_grid(9, (2, 4), 7_000, _stream(9))
    split = simulate_grid(9, (2, 4), 7_000, _stream(9), batch=999)
    assert one == split


def test_fixed_grid_precision_mode_matches_plain_estimates():
    plain = simulate_grid(10, (2, 4), 3_000, _stream(10))
    cells = simulate_grid(10, (2, 4), 3_000, _stream(10), precision=True)
    for f in (2, 4):
        assert cells[f].point == plain[f]
        assert cells[f].trials == 3_000
        assert cells[f].low <= plain[f] <= cells[f].high
        assert cells[f].target_half_width is None


def test_adaptive_validation_errors():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="target_half_width must be positive"):
        simulate_grid(8, (3,), 100, rng, target_half_width=0.0)
    with pytest.raises(ValueError, match="target_half_width must be positive"):
        # nan <= 0 is False: this once ran to the 5,000,000-trial ceiling
        simulate_full_grid((3,), (1,), 10, {3: rng}, target_half_width=float("nan"))
    with pytest.raises(ValueError, match="confidence must be in"):
        simulate_grid(8, (3,), 100, rng, target_half_width=0.01, confidence=1.0)
    with pytest.raises(ValueError, match="max_iterations"):
        simulate_grid(8, (3,), 1_000, rng, target_half_width=0.01, max_iterations=10)


def test_mad_grid_adaptive_mode_tracks_equation1():
    mads = mean_absolute_deviation_grid(
        (2, 3), 500, n_max=20, seed=PINNED_SEED, target_half_width=0.02
    )
    assert set(mads) == {2, 3}
    for f, mad in mads.items():
        assert 0 < mad < 0.03, (f, mad)


# ----------------------------------------------------------- API hardening


def test_iterations_zero_raises_value_error_not_zero_division():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="iterations"):
        simulate_full_grid((8,), (3,), 0, {8: rng})
    with pytest.raises(ValueError, match="iterations"):
        simulate_grid(8, (3,), 0, rng=rng)


def test_rng_and_seed_together_raise_type_error():
    # the Figure 3 study derives its streams from seed= alone: rng= is refused
    with pytest.raises(TypeError, match="unexpected keyword argument 'rng'"):
        mean_absolute_deviation_grid((3,), 100, rng=np.random.default_rng(0), seed=1)


def test_neither_rng_nor_seed_still_raises():
    # a grid draws only from the generator it is handed
    with pytest.raises(TypeError, match="'rng'"):
        simulate_grid(8, (3,), 100)
    # only the Figure 3 study derives its streams, from a seed it must be given
    with pytest.raises(TypeError, match="'seed'"):
        mean_absolute_deviation_grid((3,), 100)


def test_grid_validation_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least one"):
        simulate_grid(8, (), 100, rng=rng)
    with pytest.raises(ValueError, match="f must be"):
        simulate_grid(8, (19,), 100, rng=rng)
    with pytest.raises(ValueError, match="n >= 2"):
        failure_rank_matrix(1, 10, rng)
    with pytest.raises(ValueError, match="f must be"):
        failure_matrix_at(failure_rank_matrix(4, 5, rng), 11)


def test_sampler_and_rank_basis_draw_identical_key_matrices():
    # both consume one uniform matrix per call: a shared generator stays in
    # lockstep whichever sampler shape a caller mixes
    a = sample_failure_matrix(5, 3, 50, np.random.default_rng(11))
    b = failure_matrix_at(failure_rank_matrix(5, 50, np.random.default_rng(11)), 3)
    assert (a == b).all()
