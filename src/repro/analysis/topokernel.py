"""Generic vectorized survivability kernels over arbitrary topologies.

:mod:`repro.analysis.montecarlo` hand-derives the dual-hub cluster's
success predicate and breakdown thresholds; this module computes the same
quantities for *any* :class:`~repro.topology.model.Topology` — and
dispatches back to a topology's attached specialized kernels whenever they
apply, so the paper's topology pays nothing for the generality:

* :func:`topology_connected_vec` — the batch success predicate: a
  bit-packed BFS (64 trials per ``uint64`` word; one hop is a gather
  through the CSR neighbour index plus one ``bitwise_or.reduceat`` —
  ``O(E * rows / 64)`` integer word-ops), with pair / all-terminals /
  quorum acceptance and a row-wise fallback for custom predicates.
* :func:`topology_connectivity_levels` — per-row breakdown thresholds for
  monotone predicates via a vectorized binary search over the failure
  level on each row's sorted keys, one batched BFS pass per step; the
  sweeps search only the f-range they read (:func:`_levels_within`).
  This is what keeps the common-random-numbers sweep and adaptive
  stopping available to every topology.
* :func:`sample_topology_failures` / :func:`topology_keys` — exactly-``f``
  sampling with optional per-site weights (the Gumbel top-k trick of
  :mod:`~repro.analysis.weighted`, generalized to any failure universe).
* :func:`simulate_topology_grid` — the sweep loop
  (:func:`repro.analysis.montecarlo._padded_sweep`, the one
  :func:`~repro.analysis.montecarlo.simulate_grid` runs) with this
  topology as its single group, so stream consumption is identical and
  the dual-hub topology replays byte-identical draws; a point is its
  one-cell grid, ``simulate_topology_grid(t, (f,), iterations, rng)[f]``,
  and :func:`_topology_stratified_sweep` is the same loop with a
  per-stratum draw step and a quadrature-combined grid builder.
* :func:`enumerate_topology_success` / :func:`exact_topology_success` —
  the exhaustive oracle and the closed-form dispatch.  Enumeration feeds
  the packed BFS too, a block of at most 2^16 failure sets at a time (its
  memory bound); the 50 M-set default budget is about half a minute.  The
  per-subset reference lives in ``tests/topology/test_enumeration.py``.

Every kernel validates ``f`` through
:meth:`~repro.topology.model.Topology.validate_f` — the same clear
``ValueError`` contract as :func:`repro.analysis.exact.success_probability`.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from repro.analysis.montecarlo import (
    _at_least,
    _check_method,
    _crn_grid,
    _draw_keys,
    _padded_sweep,
    _Round,
    _stacked_draw,
    _SweepGroup,
)
from repro.analysis.stats import _z_for, centred_half_width
from repro.analysis.variance import (
    _round_allocations,
    allocate_stratum_trials,
    site_stratum_weights,
)
from repro.obs.precision import CellPrecision, PrecisionGrid
from repro.topology.model import ConnectivityPredicate, Topology

#: refuse exhaustive enumeration beyond this many failure sets (~half a minute)
DEFAULT_MAX_ENUMERATION = 50_000_000

#: failure sets per enumeration block: the ``(width, rows)`` bool matrix
#: stays ~2-7 MB for catalog widths 30-100, whatever the universe
_ENUMERATION_BLOCK = 1 << 16


def _cell_n(topology: Topology) -> int:
    """The N used to label precision cells (node/host count when known)."""
    for key in ("n", "hosts"):
        if key in topology.meta:
            return int(topology.meta[key])
    return topology.width


def require_baseline_connectivity(
    topology: Topology, predicate: ConnectivityPredicate | None = None
) -> None:
    """Reject topologies whose predicate already fails with zero failures.

    The sweep kernel's breakdown thresholds live in ``[0, width]`` — a
    topology that is dead at ``f = 0`` has no threshold, and every
    estimate would silently read 0.  Raising here turns a mis-built
    topology into an immediate, explainable error.
    """
    if not topology.connected((), predicate):
        raise ValueError(
            f"topology {topology.name!r} fails predicate "
            f"{(predicate or topology.predicate).describe()!r} with zero failures"
        )


# ------------------------------------------------------------------ predicate
def _site_matrix(topology: Topology, matrix, what: str, dtype=None) -> np.ndarray:
    """``matrix`` as an array, checked to span the topology's failure universe."""
    matrix = np.asarray(matrix, dtype=dtype)
    if matrix.ndim != 2 or matrix.shape[1] != topology.width:
        raise ValueError(
            f"{what} matrix must be (iterations, {topology.width}) for "
            f"topology {topology.name!r}, got {matrix.shape}"
        )
    return matrix


def _pack_trials(flags_t: np.ndarray) -> np.ndarray:
    """Pack a ``(n, trials)`` bool matrix 64 trials per ``uint64`` word.

    Trial ``r`` is bit ``r % 8`` of byte ``r // 8``; eight bytes make one
    word, and the padding bits of the last word are zero.
    """
    trials = flags_t.shape[1]
    packed = np.zeros((flags_t.shape[0], -(-trials // 64) * 8), dtype=np.uint8)
    packed[:, : -(-trials // 8)] = np.packbits(flags_t, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _unpack_trials(words: np.ndarray, trials: int) -> np.ndarray:
    """Inverse of :func:`_pack_trials` along the last axis, padding dropped."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=trials, bitorder="little")
    return bits.view(bool)


def _alive_words(topology: Topology, failed_t: np.ndarray) -> np.ndarray:
    """Packed ``(V, words)`` vertex liveness from a ``(width, trials)`` failure matrix.

    Padding trials are dead at every vertex — terminals included — so
    they can neither be reached nor hold a BFS open.
    """
    everywhere = _pack_trials(np.ones((1, failed_t.shape[1]), dtype=bool))
    alive = np.tile(everywhere, (topology.num_vertices, 1))
    alive[list(topology.failure_sites)] &= ~_pack_trials(failed_t)
    return alive


def _packed_reach(index, alive: np.ndarray, start: int) -> np.ndarray:
    """Vertices reachable from ``start`` per trial, as packed ``(V, words)`` bits.

    One hop gathers each neighbour's reached-words and ORs them per CSR
    segment — ``O(E * words)`` word-ops, every trial's frontier at once;
    hop count is the longest surviving shortest path.  Vertices without
    neighbours own no segment (``reduceat`` misreads an empty one) and
    can only ever reach themselves.
    """
    indptr, indices = index
    linked = np.flatnonzero(np.diff(indptr))
    starts, alive_linked = indptr[linked], alive[linked]
    reached = np.zeros_like(alive)
    reached[start] = alive[start]
    while True:
        frontier = np.bitwise_or.reduceat(reached[indices], starts, axis=0)
        new = frontier & alive_linked & ~reached[linked]
        if not new.any():
            return reached
        reached[linked] |= new


def _connected_t(topology: Topology, index, failed_t: np.ndarray, pred) -> np.ndarray:
    """Success per trial for a transposed ``(width, trials)`` failure matrix."""
    terminals = list(topology.terminals)
    trials = failed_t.shape[1]
    if pred.kind == "pair":
        reached = _packed_reach(index, _alive_words(topology, failed_t), terminals[pred.a])
        return _unpack_trials(reached[terminals[pred.b]], trials)
    if pred.kind == "all-terminals":
        reached = _packed_reach(index, _alive_words(topology, failed_t), terminals[0])
        return _unpack_trials(np.bitwise_and.reduce(reached[terminals], axis=0), trials)
    if pred.kind == "quorum":
        need = pred.required(topology)
        ok = np.zeros(trials, dtype=bool)
        for t in terminals:
            pending = np.flatnonzero(~ok)
            if not pending.size:
                break
            reached = _packed_reach(index, _alive_words(topology, failed_t[:, pending]), t)
            ok[pending] = _unpack_trials(reached[terminals], pending.size).sum(axis=0) >= need
        return ok
    return np.array(
        [topology.connected(np.flatnonzero(column), pred) for column in failed_t.T], dtype=bool
    )


def topology_connected_vec(
    topology: Topology,
    failed: np.ndarray,
    predicate: ConnectivityPredicate | None = None,
) -> np.ndarray:
    """Batch success predicate: one bool per failure-matrix row.

    ``failed`` is ``(iterations, width)`` over the canonical failure-site
    order.  With the topology's own default predicate, an attached
    ``connected_fn`` fast path wins (the dual-hub builder wires
    :func:`~repro.analysis.montecarlo.pair_connected_vec` here); otherwise
    the bit-packed BFS evaluates the shipped predicate kinds directly, and
    any other :class:`ConnectivityPredicate` falls back to row-wise
    reference evaluation (correct, but O(rows) Python).
    """
    failed = _site_matrix(topology, failed, "failure", dtype=bool)
    if predicate is None and topology.connected_fn is not None:
        return np.asarray(topology.connected_fn(failed), dtype=bool)
    pred = predicate if predicate is not None else topology.predicate
    return _connected_t(topology, topology.neighbor_index(), failed.T, pred)


# --------------------------------------------------------------------- levels
def _levels_within(
    topology: Topology, keys: np.ndarray, predicate: ConnectivityPredicate | None, fs: tuple
) -> np.ndarray:
    """Per row: the breakdown threshold, clipped to ``[max(min(fs) - 1, 0), max(fs)]``.

    The clip moves no count :func:`~repro.analysis.montecarlo._at_least`
    takes at ``fs``, so a sweep searches only what its f-grid reads:
    ``ceil(log2(hi - lo))`` batched predicate passes, ``lo`` and ``hi - 1``
    the clip's ends.  The level-``f``
    failure set of a row is every key at most its ``f``-th smallest —
    exactly the keys with fewer than ``f`` keys strictly below them — so
    a tie fails together, as in the closed forms, whatever order the sort
    leaves equal keys in.  An attached ``levels_fn`` (dual-hub) answers
    for the topology's own predicate, unclipped.
    """
    if predicate is None and topology.levels_fn is not None:
        return np.asarray(topology.levels_fn(keys))
    pred = predicate if predicate is not None else topology.predicate
    index = topology.neighbor_index()
    ascending = np.sort(keys, axis=1)
    keys_t = np.ascontiguousarray(keys.T)
    # invariant: every row survives at lo and fails at hi, as far as the
    # bracket tells; an active row has hi - lo >= 2, so its mid is >= 1
    lo = np.full(keys.shape[0], max(min(fs) - 1, 0), dtype=np.int64)
    hi = np.full(keys.shape[0], max(fs) + 1, dtype=np.int64)
    while True:
        active = (hi - lo) > 1
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        # a settled row's mid may be 0: its cut (the last key) is never read
        cut = np.take_along_axis(ascending, mid[:, None] - 1, axis=1)[:, 0]
        ok = _connected_t(topology, index, keys_t <= cut, pred)
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)


def topology_connectivity_levels(
    topology: Topology,
    keys: np.ndarray,
    predicate: ConnectivityPredicate | None = None,
) -> np.ndarray:
    """Per row: the largest ``f`` at which the topology still survives.

    The generic form of
    :func:`~repro.analysis.montecarlo.connectivity_levels`: ``keys`` is
    any row-wise comparable matrix over the failure-site axis (the draw
    step's ``uint32`` keys on the hot path, their Gumbel transform under
    weights, or :func:`topology_keys`); the level-``f`` failure set of a
    row is its ``f`` smallest keys, and keys tied with the ``f``-th fail
    with it, as in the closed forms.  For a monotone predicate each row
    has a single breakdown threshold, found by vectorized binary search
    over the whole range ``[0, width]`` (:func:`_levels_within`).  A
    topology with an attached ``levels_fn`` (dual-hub) skips the search
    entirely when its default predicate is in play.

    The topology must survive ``f = 0`` (see
    :func:`require_baseline_connectivity`), so thresholds are well-defined
    and non-negative.
    """
    keys = _site_matrix(topology, keys, "key")
    if predicate is not None or topology.levels_fn is None:
        require_baseline_connectivity(topology, predicate)
    return _levels_within(topology, keys, predicate, (0, topology.width))


# ------------------------------------------------------------------- sampling
def _weight_keys(topology: Topology, keys: np.ndarray) -> np.ndarray:
    """Turn the draw step's ``uint32`` keys into failure-priority keys under the weight model.

    Identity for uniform topologies (the raw draw *is* the key matrix —
    the exact stream of the specialized kernels).  Weighted topologies map
    each key ``k`` to the uniform ``u = (k + 0.5) 2^-32``, strictly inside
    (0, 1), and take the Gumbel top-k transform of
    :mod:`~repro.analysis.weighted`: ``log(-log u) - log w`` is ascending
    in failure priority, so "the ``f`` smallest keys fail" realizes
    weighted sampling without replacement over any failure universe.
    """
    weights = topology.weight_array()
    if weights is None:
        return keys
    u = (keys + 0.5) * 2.0**-32
    return np.log(-np.log(u)) - np.log(weights)[None, :]


def topology_keys(topology: Topology, iterations: int, rng: np.random.Generator) -> np.ndarray:
    """One i.i.d. key matrix: a row's ``f`` smallest keys are its failures.

    The reference sampler: exactly ``iterations * width`` uniforms from
    ``rng.random``, Gumbel-transformed under weights — no code shared with
    the sweep's draw step, so the tests can hold one against the other.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    u = rng.random((iterations, topology.width))
    weights = topology.weight_array()
    return u if weights is None else np.log(-np.log(u)) - np.log(weights)[None, :]


def sample_topology_failures(
    topology: Topology, f: int, iterations: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean ``(iterations, width)`` matrix of exactly-``f`` failures.

    The generic analogue of
    :func:`~repro.analysis.montecarlo.sample_failure_matrix` (uniform
    sites) and :func:`~repro.analysis.weighted.weighted_failure_matrix`
    (weighted sites), driven by the topology's own weight model.
    """
    topology.validate_f(f)
    keys = topology_keys(topology, iterations, rng)
    failed = np.zeros(keys.shape, dtype=bool)
    if f > 0:
        picks = np.argpartition(keys, f - 1, axis=1)[:, :f]
        np.put_along_axis(failed, picks, True, axis=1)
    return failed


# ----------------------------------------------------------------- estimators
def _strata_grid(
    weights: np.ndarray,
    sampled: list[int],
    confidence: float,
    target_half_width: float | None,
    topology: str,
):
    """Grid builder of the topology-stratified sweep: stratum intervals combined by weight.

    The sweep has one group, so a round is that group's f-grid.
    ``weights[i, j]`` is stratum ``j``'s weight at ``fs[i]`` and
    ``sampled[j]`` the trials its histogram ``group.hists[j]`` covers (the
    sweep's draw step updates it in place).  Per ``f`` the point is the
    weighted sum of the sampled strata's points, the half-width their
    weighted half-widths summed in quadrature, and ``successes`` the
    survivors of the strata with nonzero weight.  A stratum's half-width
    is the longer arm of its continuity-corrected Wilson interval
    (:func:`~repro.analysis.stats.centred_half_width`), as in the dual-hub
    strata: Wilson's half-width centred on the point covers under nominal
    near ``p = 1``.
    """
    z = _z_for(confidence)

    def grid(round_: _Round, elapsed: float) -> PrecisionGrid:
        point = np.zeros(len(round_.fs))
        half_sq = np.zeros(len(round_.fs))
        successes = np.zeros(len(round_.fs), dtype=np.int64)
        for j, trials in enumerate(sampled):
            if trials == 0:
                continue
            # a zero weight adds +0.0 to both sums, and nothing to successes
            weight = weights[:, j]
            alive = _at_least(round_, j)
            p, half = centred_half_width(alive, trials, z)
            point += weight * p
            # Python's float pow, not x * x: the two differ in the last bit
            half_sq += [h**2 for h in (weight * half).tolist()]
            successes += np.where(weight == 0.0, 0, alive)
        return PrecisionGrid.from_stratified(
            round_.ns,
            round_.fs,
            successes,
            round_.groups[0].trials,
            point=point,
            half_width=np.sqrt(half_sq),
            confidence=confidence,
            target_half_width=target_half_width,
            elapsed_s=elapsed,
            topology=topology,
            method="stratified",
        )

    return grid


def _topology_stratified_sweep(
    topology: Topology,
    fs: tuple[int, ...],
    iterations: int,
    rng: np.random.Generator,
    batch: int,
    target_half_width: float | None,
    confidence: float,
    max_iterations: int | None,
    precision: bool,
    predicate: ConnectivityPredicate | None,
) -> dict[int, float] | dict[int, CellPrecision]:
    """Stratified CRN sweep conditioning on the declared strata sites.

    The sweep loop with its own draw step and grid builder.  Strata are
    "exactly ``j`` of the topology's
    :attr:`~repro.topology.model.Topology.strata_sites` failed"
    (``j in [0, s]``), with exact hypergeometric weights per ``f``
    (:func:`repro.analysis.variance.site_stratum_weights`).  Each stratum
    keeps its own spawned stream and its own threshold histogram: a row
    draws its ``uint32`` keys as every CRN step does
    (:func:`~repro.analysis.montecarlo._draw_keys`), picks which ``j``
    strata sites fail (uniformly, via their own key order, ties broken by
    position), and those columns' keys are shifted down by ``2^32``
    (failed before anything else) and the surviving strata sites' up by
    ``2^32`` (never fail),
    so the level-``f`` failure set is the ``j`` chosen sites plus the
    ``f - j`` highest-priority other sites — a draw from the conditional
    distribution for *every* ``f >= j`` at once, nested in ``f``.  The
    breakdown-threshold reduction then proceeds exactly as in the crude
    sweep.

    Each round's trials are split proportional to each stratum's largest
    weight over the f-grid — strict one-each apportionment on the first
    round (:func:`repro.analysis.variance.allocate_stratum_trials`, whose
    budget check doubles as the input hardening), largest-remainder
    rounding afterwards.  The combined cell interval sums stratum
    half-widths in quadrature scaled by their weights; cells publish with
    ``method="stratified"``.  Unlike the single-sampled-stratum dual-hub
    path, per-round rounding couples the strata, so adaptive runs are
    *not* promised byte-identical to fixed-count reruns cell by cell.
    """
    width = topology.width
    positions = np.array(topology.strata_positions(), dtype=np.int64)
    strata = range(len(positions) + 1)
    weights_by_f = {f: site_stratum_weights(width, len(positions), f) for f in fs}
    scores = [max((weights_by_f[f][j] for f in fs), default=0.0) for j in strata]
    stratum_rngs = rng.spawn(len(strata))
    group = _SweepGroup(_cell_n(topology), width, rng, fs, tracks=strata)
    sampled = [0] * len(strata)

    def draw(active: list[_SweepGroup], size: int) -> None:
        allocate = allocate_stratum_trials if group.trials == 0 else _round_allocations
        for j, count in enumerate(allocate(size, scores)):
            if count == 0:
                continue
            u = np.empty((count, width), dtype=np.uint32)
            _draw_keys(stratum_rngs[j], u)
            keys = u.astype(np.int64)
            keys[:, positions] += 1 << 32  # surviving strata sites never fail
            if j > 0:
                if j == len(positions):
                    chosen = np.broadcast_to(positions, (count, j))
                else:  # (key, position) pairs are distinct: no tie reaches the partition
                    order = u[:, positions].astype(np.uint64) << 32
                    order |= np.arange(len(positions), dtype=np.uint64)
                    picks = np.argpartition(order, j - 1, axis=1)[:, :j]
                    chosen = positions[picks]
                keys[np.arange(count)[:, None], chosen] -= 2 << 32  # chosen sites fail first
            levels = _levels_within(topology, keys, predicate, fs)
            group.hists[j] += np.bincount(levels, minlength=width + 1)
            sampled[j] += count

    weights = np.array([weights_by_f[f] for f in fs])
    return _padded_sweep(
        [group],
        draw,
        _strata_grid(weights, sampled, confidence, target_half_width, topology.name),
        iterations,
        batch,
        target_half_width,
        confidence,
        max_iterations,
        precision,
    )[group.n]


def simulate_topology_grid(
    topology: Topology,
    fs: tuple[int, ...],
    iterations: int,
    rng: np.random.Generator,
    batch: int = 200_000,
    predicate: ConnectivityPredicate | None = None,
    target_half_width: float | None = None,
    confidence: float = 0.95,
    max_iterations: int | None = None,
    precision: bool = False,
    method: str = "crn",
) -> dict[int, float] | dict[int, CellPrecision]:
    """The CRN sweep over one topology: every ``f`` from one sampling pass.

    Exactly :func:`~repro.analysis.montecarlo.simulate_grid` — the same
    sweep loop as one group, nested failure sets, adaptive stopping,
    ``stats.grid`` events — with breakdown thresholds from
    :func:`topology_connectivity_levels` (monotone predicates only; every
    shipped predicate qualifies) over the topology's weighted keys.  The
    f-grid shares one stream, so any f-subset reproduces its slice of the
    full sweep, and the dual-hub topology's fast path replays the
    specialized kernel's byte-identical stream.

    ``method="stratified"`` conditions sampling on the topology's declared
    :attr:`~repro.topology.model.Topology.strata_sites` — through the
    family's attached specialized kernel when one exists (the dual-hub
    builder wires the hub-stratified sweep of
    :mod:`repro.analysis.variance`), else through the generic
    :func:`_topology_stratified_sweep` (uniform failure weights only).
    ``method="stratified-cv"`` additionally requires the specialized
    kernel (control variates are family-specific closed forms).
    """
    _check_method(method)
    fs = tuple(fs)
    for f in fs:
        topology.validate_f(f)
    if method != "crn":
        if predicate is None and topology.stratified_fn is not None:
            return topology.stratified_fn(
                fs=fs,
                iterations=iterations,
                rng=rng,
                batch=batch,
                control_variate=method == "stratified-cv",
                target_half_width=target_half_width,
                confidence=confidence,
                max_iterations=max_iterations,
                precision=precision,
            )
        if method == "stratified-cv":
            raise ValueError(
                f"method 'stratified-cv' needs a topology with an attached stratified "
                f"kernel; {topology.name!r} has none (use method='stratified')"
            )
        if not topology.strata_positions():
            raise ValueError(
                f"topology {topology.name!r} declares no strata_sites; stratified "
                f"sampling needs them (use method='crn')"
            )
        if topology.weights is not None:
            raise ValueError(
                f"stratified sampling requires uniform failure weights; topology "
                f"{topology.name!r} declares per-site weights"
            )
    require_baseline_connectivity(topology, predicate)
    if method != "crn":
        return _topology_stratified_sweep(
            topology,
            fs,
            iterations,
            rng,
            batch,
            target_half_width,
            confidence,
            max_iterations,
            precision,
            predicate,
        )

    def levels(keys: np.ndarray, widths: None) -> dict[str, np.ndarray]:
        return {"surv": _levels_within(topology, _weight_keys(topology, keys), predicate, fs)}

    closed_form = predicate is None and topology.levels_fn is not None  # no binary search
    group = _SweepGroup(_cell_n(topology), topology.width, rng, fs)
    return _padded_sweep(
        [group],
        # the packed BFS costs per call, not per key: only an attached closed form is tiled
        _stacked_draw(levels, whole_rounds=not closed_form),
        _crn_grid(confidence, target_half_width, topology=topology.name),
        iterations,
        batch,
        target_half_width,
        confidence,
        max_iterations,
        precision,
    )[group.n]


# -------------------------------------------------------------------- oracles
def enumerate_topology_success(
    topology: Topology,
    f: int,
    predicate: ConnectivityPredicate | None = None,
    max_combinations: int = DEFAULT_MAX_ENUMERATION,
) -> float:
    """Exact survivability by enumerating all ``C(width, f)`` failure sets.

    The assumption-free oracle, through the packed BFS the samplers use:
    subsets in lexicographic order, at most :data:`_ENUMERATION_BLOCK` at a
    time, scattered into the transposed 0/1 failure matrix and counted, 64
    per machine word (a custom predicate takes :func:`_connected_t`'s
    row-wise branch).  One block bounds memory whatever the budget; more
    than ``max_combinations`` subsets are refused before anything is
    allocated rather than silently running for hours.
    """
    topology.validate_f(f)
    width = topology.width
    total = comb(width, f)
    if total > max_combinations:
        raise ValueError(
            f"enumeration over C({width}, {f}) = {total} failure sets "
            f"exceeds max_combinations={max_combinations}"
        )
    pred = predicate if predicate is not None else topology.predicate
    index = topology.neighbor_index()
    sites = chain.from_iterable(combinations(range(width), f))
    good = 0
    for start in range(0, total, _ENUMERATION_BLOCK):
        rows = min(_ENUMERATION_BLOCK, total - start)
        # ``count`` stops the shared iterator exactly at the block's last subset
        block = np.fromiter(sites, dtype=np.intp, count=rows * f).reshape(rows, f)
        failed_t = np.zeros((width, rows), dtype=bool)
        failed_t[block, np.arange(rows)[:, None]] = True
        good += int(np.count_nonzero(_connected_t(topology, index, failed_t, pred)))
    return good / total


def exact_topology_success(
    topology: Topology,
    f: int,
    predicate: ConnectivityPredicate | None = None,
    max_combinations: int = DEFAULT_MAX_ENUMERATION,
) -> float:
    """Closed-form survivability when the topology ships one, else enumerate.

    The dual-hub builder attaches Equation 1 here, so the generic API
    answers the paper's grid exactly; every other family falls back to
    :func:`enumerate_topology_success` (subject to the same size guard).
    """
    topology.validate_f(f)
    if predicate is None and topology.exact_fn is not None:
        return float(topology.exact_fn(f))
    return enumerate_topology_success(topology, f, predicate, max_combinations)
