"""Variance reduction for the survivability Monte Carlo.

Equation 1 (:mod:`repro.analysis.exact`) counts bad failure sets by
conditioning on the hub state, so the same conditioning is available to the
simulation for free: stratify on *how many hubs failed* and most of the
estimator's variance disappears into closed forms (docs/model.md §11).

With ``j`` of the 2 hubs failed among ``f`` uniform failures over the
``2N + 2`` components, the stratum weights are hypergeometric::

    w_j(N, f) = C(2, j) C(2N, f - j) / C(2N+2, f)

and the conditional success probabilities are

* ``j = 2`` — zero, exactly (no hubs, no routes);
* ``j = 1`` — exact: only the surviving network's direct route can work,
  so ``p_1 = C(2N-2, f-1) / C(2N, f-1)`` (:func:`one_hub_conditional_success`);
* ``j = 0`` — the only stratum that needs sampling.  Both hubs are up, the
  remaining ``f`` failures are uniform over the ``2N`` NICs, and the
  whole f-grid reads off one NIC-only common-random-numbers sweep
  (:func:`nic_connectivity_levels`, the hub-free analogue of
  :func:`repro.analysis.montecarlo.connectivity_levels`).

The stratified estimate ``p̂ = w_1 p_1 + w_0 p̂_0`` carries *only* the
sampled stratum's noise: its half-width is ``w_0`` times the stratum-0
interval, which is why the estimator needs far fewer trials than crude CRN
sampling for the same CI width.

On top of stratification, the endpoint-dead indicator ``X`` (some endpoint
lost both NICs — the ``2 C(2N-2, f-2) - C(2N-4, f-4)`` term of Equation 1)
is a control variate with known conditional mean
(:func:`endpoint_dead_conditional_mean`).  ``X`` and the success indicator
``S`` are mutually exclusive, so the regression-optimal coefficient
collapses to a closed form and the CV estimator reduces to the ratio form

::

    p̂_0,cv = (1 - μ_X) · a / (a + c)

where ``a`` counts surviving rows and ``c`` the bad-but-not-endpoint-dead
rows (crossed endpoints with every intermediate covered).  On the paper
grid ``f < N`` the ``c`` term is zero for most cells and the CV estimate
lands exactly on Equation 1 — the Monte Carlo then only spends trials
certifying the interval.

Intervals: stratum 0 keeps an interval centred on its own estimate
(``(a, T)`` plain, ``(a, a + c)`` scaled by ``1 - μ_X`` for the CV form),
whose half-width is the longer arm of the continuity-corrected Wilson
interval (:func:`repro.analysis.stats.centred_half_width`): it covers at
least nominally, and stays positive at p̂ = 1, which keeps adaptive
stopping sound there.  The combined cell interval is that half-width scaled
by ``w_0``.  Cells are
published as :class:`repro.obs.precision.CellPrecision` records with
``method`` set, so precision CSVs, flight events, and the watch dashboard
distinguish stratified intervals from plain binomial ones.

The sampling itself is :func:`repro.analysis.montecarlo._padded_sweep`,
the one sweep loop: :func:`_stratified_full_grid` hands it NIC-only groups
(:func:`_nic_group`), a two-track level function and the stratified cell
builder.  ``simulate_full_grid(method="stratified" | "stratified-cv")`` is
the many-N call and ``simulate_grid`` with the same ``method`` the one-N
case; :func:`stratified_success_probability` is one cell whose default
budget split runs the same loop, and whose explicit ``allocations`` path,
with :func:`sample_conditional_failure_matrix`, stays as the reference
sampler the property tests drive.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.combinatorics import comb0, covering_nic_failures
from repro.analysis.exact import _validate
from repro.analysis.montecarlo import (
    _at_least,
    _count_below,
    _mask_padded,
    _padded_sweep,
    _Round,
    _stacked_draw,
    _SweepGroup,
    pair_connected_vec,
)
from repro.analysis.stats import _z_for, centred_half_width
from repro.obs.precision import CellPrecision, PrecisionGrid


# ------------------------------------------------------------- closed forms
def site_stratum_weights(universe: int, sites: int, f: int) -> tuple[float, ...]:
    """P[exactly j of ``sites`` designated components fail | f failures].

    Hypergeometric over a uniform size-``f`` failure set in a universe of
    ``universe`` components: ``w_j = C(s, j) C(U-s, f-j) / C(U, f)`` for
    ``j in [0, sites]``.  This is the generic form behind both the dual-hub
    strata (``sites=2``) and topology-declared strata
    (:attr:`repro.topology.model.Topology.strata_sites`).
    """
    if not 0 <= sites <= universe:
        raise ValueError(f"sites must be in [0, universe] = [0, {universe}], got {sites}")
    total = comb0(universe, f)
    if total == 0:
        raise ValueError(f"no failure sets of size {f} exist in a universe of {universe}")
    return tuple(comb0(sites, j) * comb0(universe - sites, f - j) / total for j in range(sites + 1))


def hub_stratum_weights(n: int, f: int) -> tuple[float, float, float]:
    """``(w_0, w_1, w_2)``: P[j hubs failed | f failures] for the pair model."""
    _validate(n, f)
    return site_stratum_weights(2 * n + 2, 2, f)


def one_hub_conditional_success(n: int, f: int) -> float:
    """P[pair survives | exactly one hub failed] — exact.

    With one hub down the two-hop repair is impossible, so the pair
    survives iff the ``f - 1`` NIC failures miss both endpoint NICs on the
    surviving network: ``C(2N-2, f-1) / C(2N, f-1)`` (the complement of
    Equation 1's one-hub bad term, per hub).
    """
    _validate(n, f)
    denominator = comb0(2 * n, f - 1)
    if denominator == 0:
        return 0.0
    return comb0(2 * n - 2, f - 1) / denominator


def both_hubs_up_conditional_success(n: int, f: int, two_hop: bool = True) -> float:
    """P[pair survives | both hubs up] — exact (the sampled stratum's truth).

    All ``f`` failures land on the ``2N`` NICs.  The bad sets are Equation
    1's hub-independent terms: an endpoint fully dead (inclusion-exclusion
    for both) plus, when two-hop repair is on, crossed half-alive endpoints
    with every intermediate covered.  Without two-hop, survival is simply
    "some network's endpoint NIC pair fully up".
    """
    _validate(n, f)
    denominator = comb0(2 * n, f)
    if denominator == 0:
        return 0.0
    if not two_hop:
        return (2 * comb0(2 * n - 2, f) - comb0(2 * n - 4, f)) / denominator
    bad = (
        2 * comb0(2 * n - 2, f - 2)
        - comb0(2 * n - 4, f - 4)
        + 2 * covering_nic_failures(n - 2, f - 2)
    )
    return 1.0 - bad / denominator


def endpoint_dead_conditional_mean(n: int, f: int) -> float:
    """μ_X = P[some endpoint lost both NICs | both hubs up] — exact.

    The control variate's known mean: ``(2 C(2N-2, f-2) - C(2N-4, f-4)) /
    C(2N, f)`` (one endpoint dead, twice, minus both dead).
    """
    _validate(n, f)
    denominator = comb0(2 * n, f)
    if denominator == 0:
        return 0.0
    return (2 * comb0(2 * n - 2, f - 2) - comb0(2 * n - 4, f - 4)) / denominator


# -------------------------------------------------------- trial allocation
def allocate_stratum_trials(total: int, scores) -> tuple[int, ...]:
    """Split a trial budget over strata proportional to ``scores``.

    Largest-remainder apportionment with a floor of one trial per stratum
    whose score is positive (a sampled stratum with zero trials would make
    the combined estimator undefined); zero-score strata get exactly zero.
    The result always sums to ``total``.
    """
    scores = [float(s) for s in scores]
    if total < 1:
        raise ValueError(f"iterations must be >= 1, got {total}")
    for s in scores:
        if s < 0 or not np.isfinite(s):
            raise ValueError(f"stratum scores must be finite and nonnegative, got {s}")
    positive = [i for i, s in enumerate(scores) if s > 0]
    if not positive:
        raise ValueError("at least one stratum score must be positive")
    if total < len(positive):
        raise ValueError(
            f"trial budget {total} cannot cover {len(positive)} strata "
            f"with at least one trial each"
        )
    allocations = [0] * len(scores)
    for i in positive:
        allocations[i] = 1
    remainder = total - len(positive)
    weight_sum = sum(scores)
    raw = [s / weight_sum * remainder for s in scores]
    floors = [int(x) for x in raw]
    for i, base in enumerate(floors):
        allocations[i] += base
    leftover = remainder - sum(floors)
    order = sorted(range(len(scores)), key=lambda i: (-(raw[i] - floors[i]), i))
    for i in order[:leftover]:
        allocations[i] += 1
    return tuple(allocations)


def _round_allocations(total: int, scores) -> tuple[int, ...]:
    """Largest-remainder rounding *without* the one-each floor.

    Later adaptive rounds only top up strata that already hold samples, so
    a round may legitimately give a stratum zero new trials; the strict
    floor applies to the first round only (:func:`allocate_stratum_trials`).
    """
    scores = [float(s) for s in scores]
    weight_sum = sum(scores)
    if total <= 0 or weight_sum <= 0:
        return tuple(0 for _ in scores)
    raw = [s / weight_sum * total for s in scores]
    floors = [int(x) for x in raw]
    leftover = total - sum(floors)
    order = sorted(range(len(scores)), key=lambda i: (-(raw[i] - floors[i]), i))
    allocations = list(floors)
    for i in order[:leftover]:
        allocations[i] += 1
    return tuple(allocations)


# --------------------------------------------------- conditional sampling
def sample_conditional_failure_matrix(
    n: int,
    f: int,
    stratum: int,
    iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Failure sets of size ``f`` conditional on the hub stratum.

    Returns the full-width ``(iterations, 2n+2)`` boolean matrix with
    exactly ``stratum`` hub failures (columns 0–1) and ``f - stratum`` NIC
    failures, uniform over all such sets — the conditional analogue of
    :func:`repro.analysis.montecarlo.sample_failure_matrix`.  The one-hub
    stratum picks the failed hub uniformly per row.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if stratum not in (0, 1, 2):
        raise ValueError(f"stratum must be 0, 1, or 2 hub failures, got {stratum}")
    width = 2 * n + 2
    if not 0 <= f <= width:
        raise ValueError(f"f must be in [0, {width}], got {f}")
    nic_failures = f - stratum
    if nic_failures < 0 or nic_failures > 2 * n:
        raise ValueError(f"no failure sets with {stratum} hub failures exist for f={f}, N={n}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    failed = np.zeros((iterations, width), dtype=bool)
    if stratum == 2:
        failed[:, :2] = True
    elif stratum == 1:
        hub0_failed = rng.random(iterations) < 0.5
        failed[:, 0] = hub0_failed
        failed[:, 1] = ~hub0_failed
    if nic_failures > 0:
        keys = rng.random((iterations, 2 * n))
        picks = np.argpartition(keys, nic_failures - 1, axis=1)[:, :nic_failures]
        nic_failed = np.zeros((iterations, 2 * n), dtype=bool)
        np.put_along_axis(nic_failed, picks, True, axis=1)
        failed[:, 2:] = nic_failed
    return failed


# ------------------------------------------------------- NIC-only kernels
def nic_connectivity_levels(
    component_keys: np.ndarray, two_hop: bool = True, widths: np.ndarray | None = None
) -> np.ndarray:
    """Breakdown thresholds over NIC-only keys (both hubs conditioned up).

    The stratum-0 analogue of
    :func:`repro.analysis.montecarlo.connectivity_levels`: the key matrix
    covers only the ``2N`` NICs (columns ``a0, a1, b0, b1`` then the
    intermediates' NIC pairs), the hub terms drop out of every route, and
    the per-row threshold counts NIC failures the pair tolerates given
    both hubs up.  ``widths`` masks right-padded rows exactly as in the
    full-width kernel, so the padded full-grid pass works per stratum too.
    """
    k = component_keys
    direct0 = np.minimum(k[:, 0], k[:, 2])
    direct1 = np.minimum(k[:, 1], k[:, 3])
    critical = np.maximum(direct0, direct1)
    if two_hop and k.shape[1] > 4:
        # Best intermediate: needs both of its NICs; any one suffices.
        pair_min = np.minimum(k[:, 4::2], k[:, 5::2])
        if widths is not None:  # a padded pair reads as `critical`, which two-hop cannot raise
            _mask_padded(pair_min, (np.asarray(widths) - 4) // 2, critical[:, None])
        inter = pair_min.max(axis=1)
        crossed = np.maximum(np.minimum(k[:, 0], k[:, 3]), np.minimum(k[:, 1], k[:, 2]))
        critical = np.maximum(critical, np.minimum(inter, crossed))
    return _count_below(k, critical, widths)


def endpoint_dead_levels(
    component_keys: np.ndarray, widths: np.ndarray | None = None
) -> np.ndarray:
    """Per row: the NIC-failure rank at which an endpoint first goes dead.

    The control variate ``X`` at level ``f`` is "some endpoint lost both
    NICs within the first ``f`` NIC failures".  An endpoint dies when the
    larger of its two NIC keys enters the failure set, so the event's rank
    is the rank of ``min(max(a0, a1), max(b0, b1))`` and ``X_f`` is simply
    ``rank < f`` — one histogram of these ranks serves every ``f``, in
    lockstep with the threshold histogram from the same draw.
    """
    k = component_keys
    first_dead = np.minimum(np.maximum(k[:, 0], k[:, 1]), np.maximum(k[:, 2], k[:, 3]))
    return _count_below(k, first_dead, widths)


# -------------------------------------------------------- grid estimators
def _stratified_grid(
    groups: list[_SweepGroup],
    control_variate: bool,
    confidence: float,
    target_half_width: float | None,
    topology: str | None,
):
    """Grid builder of the hub-stratified estimator over ``groups``' rounds.

    Each group's closed forms — ``w_0``, the exact one-hub part and (CV)
    ``μ_X`` at each of its ``f`` — are computed once, here; a round's grid
    then folds every open group's histograms at once.  ``a`` counts
    stratum-0 rows surviving at level ``f``; the CV form also
    needs ``d`` (endpoint-dead rows, indicator known-mean μ_X) and ``c``
    (the remaining bad rows).  ``S`` and ``X`` are mutually exclusive, so
    the optimal-coefficient control variate reduces to the ratio estimate
    ``(1 - μ_X) a / (a + c)`` with a matching scaled interval; the
    combined cell interval is the stratum-0 half-width times ``w_0``
    (strata 1 and 2 are exact and contribute no width).  At a nominal 95 %
    (N = f = 4, 400 trials, summed exactly over every outcome) Wilson's
    half-width centred on the point covered 94.91 % plain and 94.59 % CV;
    the corrected half-width covers 95.50 % and 97.23 %.
    """
    constants = {}
    for group in groups:
        n, fs = group.n, group.fs
        weights = [hub_stratum_weights(n, f) for f in fs]
        constants[group] = (
            np.array([w[0] for w in weights]),
            np.array([w[1] * one_hub_conditional_success(n, f) for w, f in zip(weights, fs)]),
            np.array([endpoint_dead_conditional_mean(n, f) for f in fs] if control_variate else []),
        )
    z = _z_for(confidence)
    method = "stratified-cv" if control_variate else "stratified"

    def grid(round_: _Round, elapsed: float) -> PrecisionGrid:
        active = round_.groups
        w0, exact_part, mu_x = map(np.concatenate, zip(*(constants[group] for group in active)))
        trials = active[0].trials
        survivors = _at_least(round_, "surv")
        if control_variate:
            # every trial has a death rank, so this is hists["dead"][:f].sum() per f
            dead = trials - _at_least(round_, "dead")
            covered_bad = trials - survivors - dead
            conditional_trials = survivors + covered_bad
            empty = conditional_trials == 0
            point, half = centred_half_width(survivors, np.where(empty, 1, conditional_trials), z)
            stratum_estimate = np.where(empty, 0.0, (1.0 - mu_x) * point)
            stratum_half = np.where(empty, 1.0 - mu_x, (1.0 - mu_x) * half)
        else:
            stratum_estimate, stratum_half = centred_half_width(survivors, trials, z)
        return PrecisionGrid.from_stratified(
            round_.ns,
            round_.fs,
            survivors,
            trials,
            point=exact_part + w0 * stratum_estimate,
            half_width=w0 * stratum_half,
            confidence=confidence,
            target_half_width=target_half_width,
            elapsed_s=elapsed,
            topology=topology,
            method=method,
        )

    return grid


def _nic_group(n: int, rng: np.random.Generator, fs: tuple[int, ...]) -> _SweepGroup:
    """One N of the sampled stratum: NIC-only keys, thresholds + endpoint-death ranks."""
    return _SweepGroup(n, 2 * n, rng, fs, tracks=("surv", "dead"))


def _stratified_full_grid(
    groups: list[_SweepGroup],
    iterations: int,
    two_hop: bool,
    batch: int,
    control_variate: bool,
    target_half_width: float | None,
    confidence: float,
    max_iterations: int | None,
    precision: bool,
    topology: str | None = None,
) -> dict[int, dict[int, float]] | dict[int, dict[int, CellPrecision]]:
    """The stratified estimator's instantiation of the sweep loop.

    One NIC-only draw per :func:`_nic_group` per round feeds two level
    reductions — breakdown thresholds and endpoint-death ranks — whose
    histograms answer every ``f`` of every ``N``; strata 1 and 2 never
    cost a trial.  Called by
    :func:`repro.analysis.montecarlo.simulate_full_grid` (one group per
    N), the dual-hub topology's ``stratified_fn`` (one group, its cells
    labelled with the topology's name) and
    :func:`stratified_success_probability` (one group, one ``f``).
    """

    def levels(keys: np.ndarray, widths: np.ndarray | None) -> dict[str, np.ndarray]:
        return {
            "surv": nic_connectivity_levels(keys, two_hop=two_hop, widths=widths),
            "dead": endpoint_dead_levels(keys, widths=widths),
        }

    return _padded_sweep(
        groups,
        _stacked_draw(levels),
        _stratified_grid(groups, control_variate, confidence, target_half_width, topology),
        iterations,
        batch,
        target_half_width,
        confidence,
        max_iterations,
        precision,
    )


def stratified_success_probability(
    n: int,
    f: int,
    iterations: int,
    rng: np.random.Generator,
    two_hop: bool = True,
    batch: int = 200_000,
    control_variate: bool = True,
    allocations: tuple[int, int, int] | None = None,
) -> float:
    """Stratified point estimate of Equation 1 for one (N, f) cell.

    Kept beside the one-cell grid ``simulate_grid(n, (f,), iterations,
    rng, method="stratified-cv")[f]`` as the exhaustive-oracle tests'
    reference: it splits ``rng`` into one child stream per hub stratum and
    combines the strata in its own rounding order, so the two can differ
    in the last bit.  By default the whole budget goes to the only stratum
    that needs sampling, as a one-cell call into the sweep loop (the
    stratum's counts are the ``f``-th entries of its two histograms); strata with
    zero trials are answered by their closed forms
    (:func:`both_hubs_up_conditional_success`,
    :func:`one_hub_conditional_success`, and the zero of the both-hubs-down
    stratum).  ``allocations`` is an explicit per-stratum trial split
    ``(m_0, m_1, m_2)`` and exercises the reference conditional sampler
    (:func:`sample_conditional_failure_matrix`) per stratum — the
    exhaustive-oracle property tests drive it this way.
    """
    _validate(n, f)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    reference = allocations is not None
    if reference:
        allocations = tuple(int(m) for m in allocations)
        if len(allocations) != 3:
            raise ValueError(
                f"allocations must have one entry per hub stratum (3), got {len(allocations)}"
            )
        for m in allocations:
            if m < 0:
                raise ValueError(f"stratum allocations must be nonnegative, got {m}")
        allocated = sum(allocations)
        if allocated > iterations:
            raise ValueError(
                f"stratum allocations sum to {allocated}, exceeding the trial budget {iterations}"
            )
    else:
        allocations = (iterations, 0, 0)
    stratum_rngs = rng.spawn(3)
    weights = hub_stratum_weights(n, f)
    exact_conditionals = (
        both_hubs_up_conditional_success(n, f, two_hop=two_hop),
        one_hub_conditional_success(n, f),
        0.0,
    )
    estimate = 0.0
    for stratum, weight in enumerate(weights):
        if weight == 0.0:
            continue
        trials = allocations[stratum]
        if trials == 0:
            estimate += weight * exact_conditionals[stratum]
            continue
        if reference:
            survivors = endpoint_dead = 0
            remaining = trials
            while remaining > 0:
                size = min(remaining, batch)
                failed = sample_conditional_failure_matrix(
                    n, f, stratum, size, rng=stratum_rngs[stratum]
                )
                survivors += int(pair_connected_vec(failed, two_hop=two_hop).sum())
                if control_variate and stratum == 0:
                    dead = (failed[:, 2] & failed[:, 3]) | (failed[:, 4] & failed[:, 5])
                    endpoint_dead += int(dead.sum())
                remaining -= size
        else:  # only stratum 0 holds trials: one cell of the sweep loop
            group = _nic_group(n, stratum_rngs[stratum], (f,))
            _stratified_full_grid(
                [group], trials, two_hop, batch, control_variate, None, 0.95, None, False
            )
            survivors = int(group.hists["surv"][f:].sum())
            endpoint_dead = int(group.hists["dead"][:f].sum())
        if control_variate and stratum == 0:
            mu_x = endpoint_dead_conditional_mean(n, f)
            conditional_trials = trials - endpoint_dead
            if conditional_trials == 0:
                estimate += 0.0
            else:
                estimate += weight * (1.0 - mu_x) * survivors / conditional_trials
        else:
            estimate += weight * survivors / trials
    return estimate
