"""Statistical guarantees for the variance-reduced survivability estimators.

Four layers of evidence that the stratified and control-variate estimators
(:mod:`repro.analysis.variance`) are faithful, *better* drop-ins for the
crude common-random-numbers Monte Carlo:

* closed-form exactness — the hub-state decomposition reassembles Equation 1
  identically, and the CV ratio form lands exactly on Equation 1 wherever
  the crossed-covering term vanishes (the whole paper grid ``f < N``);
* interval honesty — on the full paper grid, 99.9% stratified intervals
  cover Equation 1, and the non-binomial intervals' coverage at 95% meets
  nominal on a residual-variance cell, both empirically over hundreds of
  replications and exactly, summed over every outcome;
* variance dominance — at matched trial counts, both reduced estimators
  have strictly smaller empirical variance than crude CRN sampling on
  representative cells;
* the API contract — method dispatch equivalence, adaptive/fixed
  byte-identity, full-grid slice identity, topology threading, and the
  input-hardening error messages (exact strings, PR-5 style).
"""

from dataclasses import replace
from math import exp, lgamma, log, log1p

import numpy as np
import pytest

from repro.analysis import (
    exact_topology_success,
    hub_stratum_weights,
    one_hub_conditional_success,
    simulate_full_grid,
    simulate_grid,
    simulate_topology_grid,
    site_stratum_weights,
    stratified_success_probability,
    success_probability,
)
from repro.analysis.montecarlo import _round, _SweepGroup
from repro.analysis.topokernel import _strata_grid
from repro.analysis.variance import (
    _nic_group,
    _stratified_grid,
    allocate_stratum_trials,
    both_hubs_up_conditional_success,
    endpoint_dead_conditional_mean,
    sample_conditional_failure_matrix,
)
from repro.topology import build_topology, dual_hub_cluster
from tests.conftest import grid_stream, keyed

PINNED_SEED = 424242

#: the paper grid: f = 2..10, f < N < 64 (keyed per N for the grid APIs)
PAPER_FS = tuple(range(2, 11))
PAPER_NS = tuple(range(3, 64))
PAPER_GRID = {n: tuple(f for f in PAPER_FS if f < n) for n in PAPER_NS if any(f < n for f in PAPER_FS)}

#: representative cells for variance comparisons: two paper cells, the
#: grid's hardest corner, and a cell with genuine CV residual variance
VARIANCE_CELLS = ((20, 5), (40, 8), (63, 10), (4, 4))


def _stream(n: int, method: str, seed: int = PINNED_SEED) -> np.random.Generator:
    """One independent stream per cluster size and estimator family."""
    return grid_stream(seed, n, method)


def _streams(ns, method: str, seed: int = PINNED_SEED) -> dict:
    return {n: _stream(n, method, seed) for n in ns}


# ------------------------------------------------------- closed-form layer


@pytest.mark.parametrize("n", [2, 3, 5, 10, 63])
def test_hub_decomposition_reassembles_equation1(n):
    for f in range(0, 2 * n + 3):
        w0, w1, w2 = hub_stratum_weights(n, f)
        assert w0 + w1 + w2 == pytest.approx(1.0, abs=1e-12)
        reassembled = w1 * one_hub_conditional_success(n, f) + w0 * both_hubs_up_conditional_success(n, f)
        assert reassembled == pytest.approx(success_probability(n, f), abs=1e-12), (n, f)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_stratum_weights_are_hypergeometric_probabilities(n):
    width = 2 * n + 2
    for f in range(0, width + 1):
        weights = site_stratum_weights(width, 2, f)
        assert len(weights) == 3
        assert all(w >= 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        # impossible strata carry exactly zero weight
        if f < 2:
            assert weights[2] == 0.0
        if f > 2 * n:
            assert weights[0] == 0.0


def test_endpoint_dead_mean_is_a_probability():
    for n in (2, 3, 5, 20):
        for f in range(0, 2 * n + 1):
            mu = endpoint_dead_conditional_mean(n, f)
            assert 0.0 <= mu <= 1.0, (n, f)


# --------------------------------------------------- paper-grid agreement


def test_stratified_full_grid_covers_equation1_at_999():
    grid = simulate_full_grid(
        tuple(PAPER_GRID),
        PAPER_GRID,
        2_000,
        _streams(PAPER_GRID, "stratified"),
        method="stratified",
        precision=True,
        confidence=0.999,
    )
    misses = []
    for n, fs in PAPER_GRID.items():
        for f in fs:
            cell = grid[n][f]
            exact = success_probability(n, f)
            assert cell.method == "stratified"
            if not cell.low <= exact <= cell.high:
                misses.append((n, f))
    # ~500 independent 99.9% intervals expect ~0.5 misses; allow the
    # binomial tail room it deserves (the pinned seed keeps this exact)
    assert len(misses) <= 2, misses


def test_cv_full_grid_is_exact_on_paper_cells():
    # f < N keeps the crossed-covering bad count at zero, so the control
    # variate removes *all* residual variance: the estimate IS Equation 1
    grid = simulate_full_grid(
        tuple(PAPER_GRID),
        PAPER_GRID,
        2_000,
        _streams(PAPER_GRID, "stratified-cv"),
        method="stratified-cv",
        precision=True,
        confidence=0.999,
    )
    for n, fs in PAPER_GRID.items():
        for f in fs:
            cell = grid[n][f]
            exact = success_probability(n, f)
            assert cell.method == "stratified-cv"
            assert cell.point == pytest.approx(exact, abs=1e-12), (n, f)
            assert cell.low <= exact <= cell.high, (n, f)


# ----------------------------------------------------- variance dominance


@pytest.mark.parametrize("n,f", VARIANCE_CELLS)
def test_reduced_estimators_beat_crude_variance_at_matched_trials(n, f):
    trials = 2_000
    replications = 60
    crude, strat, cv = [], [], []
    for rep in range(replications):
        seed = PINNED_SEED + rep
        crude.append(simulate_grid(n, (f,), trials, np.random.default_rng(seed))[f])
        cell = f"mc-strat/n={n}/f={f}"
        strat.append(
            stratified_success_probability(n, f, trials, keyed(seed, cell), control_variate=False)
        )
        cv.append(
            stratified_success_probability(n, f, trials, keyed(seed, cell), control_variate=True)
        )
    var_crude = float(np.var(crude))
    assert var_crude > 0.0  # crude noise must exist for the comparison to bind
    assert float(np.var(strat)) < var_crude, (n, f)
    assert float(np.var(cv)) < var_crude, (n, f)
    # every estimator still centers on the truth
    exact = success_probability(n, f)
    assert float(np.mean(strat)) == pytest.approx(exact, abs=5e-3)
    assert float(np.mean(cv)) == pytest.approx(exact, abs=5e-3)


@pytest.mark.parametrize(
    "target,crude_trials,reduced_trials", [(0.0002, 1_256_000, 32_000), (0.002, 16_000, 4_000)]
)
def test_cv_reaches_the_crude_half_width_in_fewer_trials(target, crude_trials, reduced_trials):
    # trials to a half-width are deterministic for the seed, so the 39x
    # headline (1,256,000 / 32,000) is an exact fact, not a timing
    spent = {}
    for method in ("crn", "stratified-cv"):
        cells = simulate_grid(
            63,
            (2, 3, 4, 5, 6),
            1_000,
            _stream(63, method),
            method=method,
            target_half_width=target,
            max_iterations=50_000_000,
        )
        assert all(cell.met_target for cell in cells.values())
        spent[method] = max(cell.trials for cell in cells.values())
    assert all(cell.method == "stratified-cv" for cell in cells.values())
    assert spent == {"crn": crude_trials, "stratified-cv": reduced_trials}


def test_cv_interval_coverage_meets_nominal():
    # n=4, f=4 has a genuine crossed-covering term (c > 0), so the CV
    # estimate is non-degenerate and its scaled-Wilson interval is the
    # thing under test: empirical coverage at 95% over 250 replications
    n, f = 4, 4
    exact = success_probability(n, f)
    covered = {"stratified": 0, "stratified-cv": 0}
    replications = 250
    for rep in range(replications):
        for method in covered:
            cell = simulate_grid(
                n, (f,), 400, _stream(n, method, PINNED_SEED + rep), method=method, precision=True
            )[f]
            if cell.low <= exact <= cell.high:
                covered[method] += 1
    for method, hits in covered.items():
        assert hits / replications >= 0.95, (method, hits)


def _binomial_pmf(trials: int, p: float) -> list[float]:
    if p in (0.0, 1.0):
        return [float(k == round(p * trials)) for k in range(trials + 1)]
    return [
        exp(lgamma(trials + 1) - lgamma(k + 1) - lgamma(trials - k + 1)
            + k * log(p) + (trials - k) * log1p(-p))
        for k in range(trials + 1)
    ]


def _outcome_cell(n: int, f: int, trials: int, alive: int, dead: int, control_variate: bool):
    """The grid builder's cell for one sampled outcome: ``alive`` survivors, ``dead`` endpoint-dead."""
    group = _nic_group(n, None, (f,))
    group.trials = trials
    group.hists["surv"][[0, f]] = trials - alive, alive
    group.hists["dead"][[0, -1]] = dead, trials - dead
    return _stratified_grid([group], control_variate, 0.95, None, None)(_round([group]), 0.0).cell(0)


def test_cv_interval_exact_coverage_meets_nominal():
    # the same cell as above, its coverage summed exactly over every outcome
    # of 400 trials (outcomes rarer than 1e-12 dropped, which only lowers
    # it): 95.50% plain and 97.23% CV; Wilson's half-width centred on the
    # point gave 94.91% and 94.59%
    n, f, trials = 4, 4, 400
    exact = success_probability(n, f)
    p0 = both_hubs_up_conditional_success(n, f)
    mu_x = endpoint_dead_conditional_mean(n, f)
    for method, control_variate in (("stratified", False), ("stratified-cv", True)):
        deads = _binomial_pmf(trials, mu_x) if control_variate else [1.0]
        q = p0 / (1.0 - mu_x) if control_variate else p0
        covered = 0.0
        for dead, p_dead in enumerate(deads):
            for alive, p_alive in enumerate(_binomial_pmf(trials - dead, q)):
                if p_dead * p_alive < 1e-12:
                    continue
                cell = _outcome_cell(n, f, trials, alive, dead, control_variate)
                covered += p_dead * p_alive * (cell.low <= exact <= cell.high)
        assert covered >= 0.95, (method, covered)


def test_topology_strata_interval_exact_coverage_meets_nominal():
    # one sampled stratum of weight 1 (the whole cell), 400 trials, nominal
    # 95 %, coverage summed exactly over every outcome: Wilson's half-width
    # centred on the point covered 94.20 %, 94.94 %, 94.60 % and 90.68 % at
    # these p; the corrected half-width covers 96.67 %, 97.84 %, 99.18 % and
    # 99.99 %
    trials, f = 400, 1
    for p in (0.75, 0.9, 0.97, 0.99):
        covered = 0.0
        for alive, p_alive in enumerate(_binomial_pmf(trials, p)):
            if p_alive < 1e-12:
                continue
            group = _SweepGroup(2, 2, None, (f,), tracks=range(1))
            group.hists[0][[0, f]] = trials - alive, alive
            group.trials = trials
            build = _strata_grid(np.array([[1.0]]), [trials], 0.95, None, "x")
            cell = build(_round([group]), 0.0).cell(0)
            covered += p_alive * (cell.low <= p <= cell.high)
        assert covered >= 0.95, (p, covered)


# ------------------------------------------------------- API equivalences


def test_simulate_grid_dispatches_to_stratified_methods():
    # the grid's method dispatch and the dual-hub topology's attached kernel
    # are one stratified sweep on the same stream
    n, fs = 20, (2, 5)
    for method in ("stratified", "stratified-cv"):
        via_dispatch = simulate_grid(n, fs, 3_000, _stream(n, method), method=method)
        attached = simulate_topology_grid(
            dual_hub_cluster(n), fs, 3_000, _stream(n, method), method=method
        )
        assert via_dispatch == attached


def test_full_grid_slices_reproduce_single_n_runs():
    ns, fs = (5, 12, 30), (2, 3, 4)
    for method in ("crn", "stratified", "stratified-cv"):
        grid = simulate_full_grid(ns, fs, 1_500, _streams(ns, method), method=method)
        for n in ns:
            solo = simulate_grid(n, fs, 1_500, _stream(n, method), method=method)
            assert grid[n] == solo, (method, n)


def test_adaptive_stratified_cell_is_byte_identical_to_fixed_run():
    n, fs = 20, (2, 5)
    adaptive = simulate_grid(
        n,
        fs,
        500,
        _stream(n, "stratified"),
        method="stratified",
        target_half_width=5e-4,
        max_iterations=600_000,
        batch=4_000,
    )
    for f in fs:
        cell = adaptive[f]
        assert cell.met_target and cell.half_width <= 5e-4
        fixed = simulate_grid(
            n, fs, cell.trials, _stream(n, "stratified"), method="stratified", precision=True
        )[f]
        assert (fixed.successes, fixed.trials) == (cell.successes, cell.trials)
        assert (fixed.point, fixed.low, fixed.high) == (cell.point, cell.low, cell.high)


def test_stratified_point_estimate_with_explicit_allocations():
    n, f = 6, 4
    exact = success_probability(n, f)
    for allocations in ((4_000, 0, 0), (3_000, 500, 500), (0, 2_000, 2_000)):
        estimate = stratified_success_probability(
            n, f, 4_000, keyed(PINNED_SEED, f"mc-strat/n={n}/f={f}"), allocations=allocations
        )
        assert estimate == pytest.approx(exact, abs=0.02), allocations


# ------------------------------------------------------ topology threading


def test_dual_hub_topology_dispatch_uses_the_cv_kernel():
    topology = build_topology("dual-hub", size=8)
    cells = simulate_topology_grid(
        topology, (2, 3), 2_000, _stream(8, "stratified-cv"), method="stratified-cv",
        precision=True,
    )
    n = (topology.width - 2) // 2
    for f in (2, 3):
        cell = cells[f]
        assert cell.method == "stratified-cv"
        assert cell.topology == topology.name
        assert cell.point == pytest.approx(success_probability(n, f), abs=1e-12)


@pytest.mark.parametrize("spec,size", [("khub:hubs=3", 6), ("fattree2:leaves=3,spines=2", 6)])
def test_generic_stratified_sweep_covers_exact_enumeration(spec, size):
    topology = build_topology(spec, size=size)
    fs = (1, 2, 3)
    cells = simulate_topology_grid(
        topology, fs, 20_000, keyed(PINNED_SEED, f"topo-strat/{topology.name}"),
        method="stratified",
        precision=True, confidence=0.999,
    )
    for f in fs:
        cell = cells[f]
        exact = exact_topology_success(topology, f)
        assert cell.method == "stratified"
        assert cell.low <= exact <= cell.high, (spec, f, cell.point, exact)


def test_stratified_cv_needs_an_attached_kernel():
    topology = build_topology("khub:hubs=3", size=6)
    with pytest.raises(ValueError, match="needs a topology with an attached stratified"):
        simulate_topology_grid(topology, (2,), 100, np.random.default_rng(1), method="stratified-cv")


def test_stratified_needs_declared_strata_sites():
    topology = replace(build_topology("khub:hubs=3", size=6), strata_sites=None)
    with pytest.raises(ValueError, match="declares no strata_sites"):
        simulate_topology_grid(topology, (2,), 100, np.random.default_rng(1), method="stratified")


def test_stratified_rejects_weighted_topologies():
    base = build_topology("khub:hubs=3", size=6)
    weighted = replace(base, weights=(2.0,) + (1.0,) * (base.width - 1))
    with pytest.raises(ValueError, match="requires uniform failure weights"):
        simulate_topology_grid(weighted, (2,), 100, np.random.default_rng(1), method="stratified")


# ------------------------------------------------------- input hardening


def test_unknown_method_raises_everywhere():
    message = "method must be 'crn', 'stratified', or 'stratified-cv', got 'antithetic'"
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match=message):
        simulate_grid(5, (2,), 100, rng, method="antithetic")
    with pytest.raises(ValueError, match=message):
        simulate_full_grid((5,), (2,), 100, {5: rng}, method="antithetic")
    with pytest.raises(ValueError, match=message):
        simulate_topology_grid(build_topology("dual-hub", size=8), (2,), 100, rng, method="antithetic")


@pytest.mark.parametrize("target", [0.0, -0.01])
def test_nonpositive_target_half_width_raises(target):
    with pytest.raises(ValueError, match=f"target_half_width must be positive, got {target}"):
        simulate_grid(
            5, (2,), 100, np.random.default_rng(1), method="stratified-cv", target_half_width=target
        )


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2])
def test_confidence_outside_unit_interval_raises(confidence):
    with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\), got"):
        simulate_grid(
            5, (2,), 100, np.random.default_rng(1), method="stratified-cv",
            target_half_width=0.01, confidence=confidence,
        )


def test_allocation_validation_messages():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match=r"allocations must have one entry per hub stratum \(3\), got 2"):
        stratified_success_probability(5, 2, 100, rng, allocations=(50, 50))
    with pytest.raises(ValueError, match="stratum allocations must be nonnegative, got -1"):
        stratified_success_probability(5, 2, 100, rng, allocations=(50, -1, 0))
    with pytest.raises(
        ValueError, match="stratum allocations sum to 150, exceeding the trial budget 100"
    ):
        stratified_success_probability(5, 2, 100, rng, allocations=(100, 25, 25))


def test_allocate_stratum_trials_hardening():
    with pytest.raises(ValueError, match="iterations must be >= 1, got 0"):
        allocate_stratum_trials(0, (1.0, 1.0))
    with pytest.raises(ValueError, match="stratum scores must be finite and nonnegative, got -1.0"):
        allocate_stratum_trials(10, (1.0, -1.0))
    with pytest.raises(ValueError, match="stratum scores must be finite and nonnegative, got inf"):
        allocate_stratum_trials(10, (1.0, float("inf")))
    with pytest.raises(ValueError, match="at least one stratum score must be positive"):
        allocate_stratum_trials(10, (0.0, 0.0))
    with pytest.raises(ValueError, match="trial budget 2 cannot cover 3 strata"):
        allocate_stratum_trials(2, (1.0, 1.0, 1.0))


def test_conditional_sampler_hardening():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="need n >= 2, got 1"):
        sample_conditional_failure_matrix(1, 2, 0, 10, rng)
    with pytest.raises(ValueError, match="stratum must be 0, 1, or 2 hub failures, got 3"):
        sample_conditional_failure_matrix(5, 2, 3, 10, rng)
    with pytest.raises(ValueError, match=r"f must be in \[0, 12\], got 13"):
        sample_conditional_failure_matrix(5, 13, 0, 10, rng)
    with pytest.raises(ValueError, match="no failure sets with 2 hub failures exist for f=1, N=5"):
        sample_conditional_failure_matrix(5, 1, 2, 10, rng)
    with pytest.raises(ValueError, match="no failure sets with 0 hub failures exist for f=9, N=4"):
        sample_conditional_failure_matrix(4, 9, 0, 10, rng)
    with pytest.raises(ValueError, match="iterations must be >= 1, got 0"):
        sample_conditional_failure_matrix(5, 2, 0, 0, rng)


def test_site_stratum_weights_hardening():
    with pytest.raises(ValueError, match=r"sites must be in \[0, universe\] = \[0, 4\], got 5"):
        site_stratum_weights(4, 5, 2)
    with pytest.raises(ValueError, match="no failure sets of size 9 exist in a universe of 4"):
        site_stratum_weights(4, 2, 9)


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: simulate_grid(5, (2,), 100, rng=rng, seed=1, method="stratified-cv"),
        lambda rng: stratified_success_probability(5, 2, 100, rng=rng, seed=1),
        lambda rng: sample_conditional_failure_matrix(5, 2, 0, 10, rng=rng, seed=1),
        lambda rng: simulate_topology_grid(
            build_topology("khub:hubs=3", size=6), (2,), 100, rng=rng, seed=1, method="stratified"
        ),
    ],
)
def test_rng_and_seed_are_mutually_exclusive(call):
    # an estimator takes only the generator it is handed: seed= is refused
    with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
        call(np.random.default_rng(0))


def test_full_grid_stream_source_exclusivity():
    # one stream source, a generator per N: the old rng= and seed= are refused
    rng = np.random.default_rng(0)
    rngs = {5: np.random.default_rng(1)}
    with pytest.raises(TypeError, match="unexpected keyword argument 'rng'"):
        simulate_full_grid((5,), (2,), 100, rng=rng, rngs=rngs)
    with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
        simulate_full_grid((5,), (2,), 100, seed=1, rngs=rngs)
    with pytest.raises(TypeError, match="'rngs'"):
        simulate_full_grid((5,), (2,), 100)
    with pytest.raises(ValueError, match="rngs must cover every n in ns; missing n=7"):
        simulate_full_grid((5, 7), (2,), 100, rngs=rngs)


def test_full_grid_domain_validation():
    rngs = dict.fromkeys((5, 7), np.random.default_rng(1))
    with pytest.raises(ValueError, match="ns must name at least one cluster size"):
        simulate_full_grid((), (2,), 100, rngs)
    with pytest.raises(ValueError, match=r"ns must be unique, got \(5, 5\)"):
        simulate_full_grid((5, 5), (2,), 100, rngs)
    with pytest.raises(ValueError, match="fs must cover every n in ns; missing n=7"):
        simulate_full_grid((5, 7), {5: (2,)}, 100, rngs)
    with pytest.raises(ValueError, match=r"f must be in \[0, 12\], got 13"):
        simulate_full_grid((5,), (13,), 100, rngs)
