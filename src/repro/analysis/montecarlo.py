"""Vectorized Monte Carlo estimator of pair survivability.

This is the paper's validation simulation ("we have developed a computer
simulation of a networking system with N nodes and f failures implementing
the DRS algorithm") and the hot path of the reproduction, so it is fully
vectorized: one NumPy batch evaluates every iteration's failure set and the
DRS reachability predicate without Python-level loops over iterations.

There is **one** sweep loop, :func:`_padded_sweep` (docs/model.md §9): per
round it draws one i.i.d. ``uint32`` key matrix per cluster size (two keys
per PCG64 word, :func:`_draw_keys`), reduces
every row to its breakdown threshold (:func:`connectivity_levels` — the
level-``f`` failure set is the row's ``f`` smallest keys, so the sets are
nested in ``f``) and reads the whole f-grid off the threshold histogram —
common random numbers across ``f``.  Every estimator is a call into it:

* :func:`simulate_full_grid` — the whole (N, f) grid, one group per N,
  each drawing from the caller's generator for that N;
* :func:`simulate_grid` — its one-N case.  A point is the one-cell grid
  ``simulate_grid(n, (f,), iterations, rng)[f]``, a curve one such cell
  per N.

The stratified estimators (:mod:`repro.analysis.variance`) and the
any-topology estimators (:mod:`repro.analysis.topokernel`) instantiate the
same loop with their own draw step and grid builder.
:func:`sample_failure_matrix`, :func:`failure_rank_matrix`,
:func:`failure_matrix_at` and :func:`pair_connected_vec` are the reference
sampler and predicate the tests compare the kernels against.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.analysis.stats import _z_for, wilson_bounds
from repro.obs.flightrecorder import flight_recorder
from repro.obs.precision import CellPrecision, PrecisionGrid
from repro.obs.profiler import publish_mc_throughput
from repro.obs.progress import heartbeat

#: hard trial ceiling per (N, f-grid) row in adaptive-stopping mode
DEFAULT_MAX_ADAPTIVE_TRIALS = 5_000_000


def _check_integer(name: str, value) -> None:
    """A trial or failure count must be an integer (a NumPy one will do).

    A float would get past every range check: ``nan`` trials sample
    nothing and return ``{}``, ``inf`` never ends, and ``2.5`` or
    ``f = 1.5`` fail deep in the loop as an indexing error.
    """
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_method(method: str) -> None:
    """The estimator names ``method=`` accepts, on every grid entry point."""
    if method not in ("crn", "stratified", "stratified-cv"):
        raise ValueError(
            f"method must be 'crn', 'stratified', or 'stratified-cv', got {method!r}"
        )


def sample_failure_matrix(n: int, f: int, iterations: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean matrix ``(iterations, 2n+2)``: True where a component failed.

    Each row holds exactly ``f`` True entries, uniform over all ``C(2n+2,f)``
    subsets.  Sampling uses the random-keys trick: rank i.i.d. uniforms per
    row and fail the ``f`` smallest — ``argpartition`` keeps it O(width) per
    row instead of a full sort.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    width = 2 * n + 2
    if not 0 <= f <= width:
        raise ValueError(f"f must be in [0, {width}], got {f}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    keys = rng.random((iterations, width))
    failed = np.zeros((iterations, width), dtype=bool)
    if f > 0:
        picks = np.argpartition(keys, f - 1, axis=1)[:, :f]
        np.put_along_axis(failed, picks, True, axis=1)
    return failed


def pair_connected_vec(failed: np.ndarray, two_hop: bool = True) -> np.ndarray:
    """Vectorized DRS reachability of the canonical pair (nodes 0 and 1).

    ``failed`` is the boolean matrix from :func:`sample_failure_matrix`;
    returns a boolean vector over iterations.
    """
    hub0_up = ~failed[:, 0]
    hub1_up = ~failed[:, 1]
    a0_up, a1_up = ~failed[:, 2], ~failed[:, 3]
    b0_up, b1_up = ~failed[:, 4], ~failed[:, 5]

    direct0 = hub0_up & a0_up & b0_up
    direct1 = hub1_up & a1_up & b1_up
    ok = direct0 | direct1
    if not two_hop or failed.shape[1] <= 6:
        return ok

    # An intermediate router needs both of its NICs; any one suffices.
    inter_up = (~failed[:, 6::2] & ~failed[:, 7::2]).any(axis=1)
    both_hubs = hub0_up & hub1_up
    crossed = (a0_up & b1_up) | (a1_up & b0_up)
    return ok | (both_hubs & inter_up & crossed)


def failure_rank_matrix(n: int, iterations: int, rng: np.random.Generator) -> np.ndarray:
    """Integer matrix ``(iterations, 2n+2)``: each row is a uniform failure order.

    Row ``i`` holds a uniformly random permutation rank per component — the
    position of that component in the row's i.i.d.-uniform key ordering.  The
    failure set at *any* level ``f`` is then simply ``ranks < f``, and those
    sets are nested in ``f`` by construction: the common-random-numbers basis
    of the sweep kernel.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    width = 2 * n + 2
    keys = rng.random((iterations, width))
    order = np.argsort(keys, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(width)[None, :], axis=1)
    return ranks


def failure_matrix_at(ranks: np.ndarray, f: int) -> np.ndarray:
    """The level-``f`` failure indicator over a shared rank matrix.

    Distributionally identical to :func:`sample_failure_matrix` at the same
    ``f``; across levels the sets are nested (``f-1``'s failures are a subset
    of ``f``'s for every row), which makes sweep estimates monotone in ``f``.
    """
    width = ranks.shape[1]
    if not 0 <= f <= width:
        raise ValueError(f"f must be in [0, {width}], got {f}")
    return ranks < f


def connectivity_levels(
    component_keys: np.ndarray, two_hop: bool = True, widths: np.ndarray | None = None
) -> np.ndarray:
    """Per row: the largest failure count ``f`` at which the pair survives.

    The DRS pair predicate is monotone (failing more components never
    reconnects the pair), so each row has a single breakdown threshold
    ``S``: the pair at level ``f`` is connected iff ``f <= S``.  A route is
    usable at level ``f`` iff every component on it has rank ``>= f``, so a
    route tolerates ``min(ranks on route)`` failures and ``S`` is the rank
    of::

        critical = max(direct0, direct1, two-hop)

    with ``direct_j = min(hub_j, A_j, B_j)`` and the two-hop term the min of
    both hubs, the best surviving intermediate, and the best crossed
    endpoint orientation.

    ``component_keys`` is any row-wise comparable matrix over the component
    axis — the draw step's ``uint32`` key matrix (the hot path: no sort
    needed) or a :func:`failure_rank_matrix` (rank of a rank is itself).
    Tied keys fail together: a row's ``S`` counts the keys strictly below
    its critical one, whatever their sites.  Rank is a
    monotone transform of key order, so the min/max expression commutes with
    it: the expression picks the critical *element*, and counting the
    strictly smaller entries in its row recovers its rank, i.e. ``S``.
    This is the one-pass form of evaluating :func:`pair_connected_vec` at
    every ``f`` over the shared draw (``connectivity_levels(ranks) >= f``
    equals ``pair_connected_vec(ranks < f)`` exactly).  Any memory layout
    works: NumPy iterates in memory order, so on the draw step's
    site-major tiles every reduction runs along contiguous rows of trials.

    ``widths`` enables the padded full-grid pass
    (:func:`simulate_full_grid`): rows from clusters of different sizes
    share one matrix at the widest of their ``2N + 2``, each row
    right-padded past its own true width.  Padded columns are masked out of
    both the intermediate-router term and the final rank count, so each
    row's threshold is computed exactly as if it were evaluated at its own
    width — one kernel call serves every N at once.
    """
    k = component_keys
    direct0 = np.minimum(np.minimum(k[:, 0], k[:, 2]), k[:, 4])
    direct1 = np.minimum(np.minimum(k[:, 1], k[:, 3]), k[:, 5])
    critical = np.maximum(direct0, direct1)
    if two_hop and k.shape[1] > 6:
        # Best intermediate: needs both of its NICs; any one suffices.
        pair_min = np.minimum(k[:, 6::2], k[:, 7::2])
        if widths is not None:  # a padded pair reads as `critical`, which two-hop cannot raise
            _mask_padded(pair_min, (np.asarray(widths) - 6) // 2, critical[:, None])
        inter = pair_min.max(axis=1)
        both_hubs = np.minimum(k[:, 0], k[:, 1])
        crossed = np.maximum(np.minimum(k[:, 2], k[:, 5]), np.minimum(k[:, 3], k[:, 4]))
        critical = np.maximum(critical, np.minimum(np.minimum(both_hubs, inter), crossed))
    return _count_below(k, critical, widths)


def _mask_padded(rows: np.ndarray, lengths: np.ndarray, fill) -> None:
    """In place, ``rows[t, j] = fill`` (scalar or per row) wherever ``j >= lengths[t]``.

    Only the columns past the shortest length are touched, in whatever
    memory layout ``rows`` has.
    """
    lo = int(lengths.min(initial=rows.shape[1]))
    np.copyto(rows[:, lo:], fill, where=np.arange(lo, rows.shape[1])[None, :] >= lengths[:, None])


def _count_below(k: np.ndarray, threshold: np.ndarray, widths: np.ndarray | None) -> np.ndarray:
    """Per row: its keys below ``threshold``, padded columns (past ``widths``) not counted.

    Counts in ``uint8`` wherever the width cannot wrap it, and returns
    ``intp`` as before (``np.bincount`` would cast it anyway).
    """
    below = k < threshold[:, None]
    if widths is not None:
        _mask_padded(below, np.asarray(widths), False)
    return below.sum(axis=1, dtype=np.uint8 if k.shape[1] < 256 else np.intp).astype(np.intp)


class _SweepGroup:
    """One key stream's state inside the sweep loop (one cluster size, one topology).

    ``hists`` holds one accumulated level histogram per named *track*
    (``"surv"`` for breakdown thresholds; the hub-stratified estimator adds
    ``"dead"`` for endpoint-death ranks, the topology-stratified one keeps
    a threshold histogram per stratum); ``trials`` is the trial count the
    histograms cover; ``n`` labels the group's precision cells and result.
    The generic topology sweeps search thresholds only inside the bracket
    ``fs`` reads, so their ``hists`` are exact only through
    :func:`_at_least` at ``fs``: a threshold outside is clipped to its edge.
    """

    __slots__ = ("n", "width", "rng", "fs", "hists", "frozen", "trials")

    def __init__(
        self,
        n: int,
        width: int,
        rng: np.random.Generator,
        fs: tuple[int, ...],
        tracks=("surv",),
    ) -> None:
        self.n = n
        self.width = width
        self.rng = rng
        self.fs = tuple(fs)
        self.hists = {track: np.zeros(width + 1, dtype=np.int64) for track in tracks}
        self.frozen: dict[int, CellPrecision] = {}
        self.trials = 0


#: keys per tile of the draw step: 64 Ki ``uint32`` = 256 KiB, so a tile and the
#: kernel's temporaries over it (whose size goes with the tile's rows) stay in L2
#: and are reused, not faulted in afresh
_TILE_KEYS = 1 << 16
#: raw PCG64 words per ``random_raw`` call (64 KiB): the call allocates its own
#: array, and one this small is reused from the heap rather than faulted in
_STAGE_WORDS = 1 << 13
#: bytes of the draw step's tile buffer, of which one tile is touched.  Where
#: the C heap places it moves the fault counts a little: against a one-tile
#: (256 KiB) buffer, 1 MiB costs fig2 and fig3 1 % more minor faults and
#: saves smalljobs_dist2 1.4 %
_DRAW_BUFFER_BYTES = 1 << 20
#: padding key of a row narrower than its tile: no real key is above it, and
#: the kernels mask padded columns out of every count, so a tie with it is harmless
_PAD_KEY = 0xFFFFFFFF


def _draw_keys(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` (rows x width, any layout) with the CRN keys of its rows, in stream order.

    The one key source of every CRN draw step: raw PCG64 words
    (``rng.bit_generator.random_raw``), each split into two little-endian
    ``uint32`` halves, low half first.  A row of ``w`` sites consumes
    ``ceil(w / 2)`` words (an odd row drops its last high half), so the
    keys a row gets do not depend on where a tile or a stage block cuts
    the round.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):  # its raw words hold 32 random bits
        raise ValueError("the CRN draw needs a 64-bit bit generator such as PCG64, got MT19937")
    rows, width = out.shape
    words = (width + 1) // 2
    step = max(1, _STAGE_WORDS // words)
    for r in range(0, rows, step):
        raw = rng.bit_generator.random_raw(min(step, rows - r) * words)
        halves = raw.astype("<u8", copy=False).view("<u4").reshape(-1, 2 * words)
        out[r : r + len(halves)] = halves[:, :width]


def _tiles(active: list[_SweepGroup], size: int, capacity: int):
    """Cut a round's group-major row sequence into runs of at most ``capacity`` padded keys."""
    tile, rows, width = [], 0, 0
    for group in active:
        left = size
        while left:
            room = capacity // max(width, group.width) - rows
            if room <= 0:  # full once padded to this group's width
                yield tile, rows, width
                tile, rows, width = [], 0, 0
                continue
            take = min(left, room)
            tile.append((group, rows, rows + take))
            rows, width, left = rows + take, max(width, group.width), left - take
    yield tile, rows, width


def _stacked_draw(levels_from_keys, whole_rounds: bool = False):
    """The loop's default draw step: each round streamed through one reused key tile.

    A round is the row sequence "open group 0's ``size`` rows, then group
    1's, ..." — group-major, every group drawing from *its own* stream.  It
    is cut into consecutive tiles of at most ``_TILE_KEYS`` ``uint32`` keys
    (at least one row), each padded only to the widest group *in that
    tile* with ``_PAD_KEY`` (above every real key, so padding never falls
    below a threshold).  A tile is drawn into one buffer allocated once per
    call, reduced by one ``levels_from_keys(keys, widths) -> {track:
    levels}`` call (``widths`` is ``None`` for a tile of one group's rows)
    and folded into its groups' per-track histograms, so peak memory is the
    tile, whatever ``batch``.

    The tile belongs to the kernel, so the builder of the draw step picks it:
    elementwise, memory-bound kernels (the dual-hub closed forms) take the
    cache-sized tile, ``whole_rounds=True`` is for per-call-bound ones (BFS).
    A cache-sized tile with at least as many rows as columns (every tile
    of the paper's grid) is stored site-major and handed over as its
    ``.T``, so the closed forms reduce along contiguous rows of trials.
    Any other tile, and a whole round, stays row-major.  Every row's keys
    come from :func:`_draw_keys`, whose per-row word rule makes the tile
    move no value: wherever the sequence is cut, every stream (per group
    or one shared) yields a whole-round draw's keys in the same order.
    """

    def draw(active: list[_SweepGroup], size: int) -> None:
        widest = max(group.width for group in active)
        capacity = size * len(active) * widest if whole_rounds else max(_TILE_KEYS, widest)
        # a whole round gets four keys' room per key: a one-round buffer, placed
        # elsewhere in the C heap, cost topo_small_exact 18 % more minor faults
        room = 4 * capacity if whole_rounds else max(_DRAW_BUFFER_BYTES // 4, capacity)
        tile_keys = np.empty(room, dtype=np.uint32)[:capacity]
        for tile, rows, width in _tiles(active, size, capacity):
            if whole_rounds or rows < width:  # few trials: row-major reductions are longer
                keys = tile_keys[: rows * width].reshape(rows, width)
            else:
                keys = tile_keys[: rows * width].reshape(width, rows).T
            for group, lo, hi in tile:
                _draw_keys(group.rng, keys[lo:hi, : group.width])
                keys[lo:hi, group.width :] = _PAD_KEY
            widths = None
            if len(tile) > 1:
                widths = np.repeat([g.width for g, _, _ in tile], [hi - lo for _, lo, hi in tile])
            levels = levels_from_keys(keys, widths)
            for group, lo, hi in tile:
                for track, values in levels.items():
                    group.hists[track] += np.bincount(values[lo:hi], minlength=group.width + 1)

    return draw


class _Round(NamedTuple):
    """One sweep round's open groups and the cell order of its grid.

    Cells run group after group, each group's in its ``fs`` order: cell
    ``i`` is ``(ns[i], fs[i])``.  :func:`_at_least` stacks the groups'
    histograms as rows of ``width`` columns and reads cell ``i``'s count at
    flat index ``tails[i]`` of their reversed cumulative sums.  All of it
    depends only on the groups' widths and f-grids, so the sweep loop
    builds a round once per sweep and again only when the set of open
    groups shrinks.
    """

    groups: list[_SweepGroup]
    ns: tuple[int, ...]
    fs: tuple[int, ...]
    width: int
    tails: np.ndarray


def _round(groups: list[_SweepGroup]) -> _Round:
    """The :class:`_Round` of ``groups``, open in that order."""
    # one zero column past the widest histogram, where an f past a row's end reads
    width = max(group.width for group in groups) + 2
    ns: list[int] = []
    fs: list[int] = []
    tails: list[int] = []
    for row, group in enumerate(groups, 1):
        ns += [group.n] * len(group.fs)
        fs += group.fs
        tails += [row * width - 1 - min(f, width - 1) for f in group.fs]
    return _Round(groups, tuple(ns), tuple(fs), width, np.array(tails))


def _at_least(round_: _Round, track) -> np.ndarray:
    """``group.hists[track][f:].sum()`` for every cell of ``round_``, in its order.

    The groups' histograms are stacked as rows, zero-padded to the round's
    ``width``, so one cumulative sum of the reversed rows serves every
    group; an ``f`` past a group's own histogram reads 0, as the empty
    slice sums.
    """
    stacked = np.zeros((len(round_.groups), round_.width), dtype=np.int64)
    for row, group in enumerate(round_.groups):
        stacked[row, : group.width + 1] = group.hists[track]
    return np.add.accumulate(stacked[:, ::-1], axis=1).take(round_.tails)


def _crn_grid(confidence: float, target_half_width: float | None, topology: str | None = None):
    """Grid builder of the crude estimator: Wilson intervals on a round's survivor counts."""
    z = _z_for(confidence)

    def grid(round_: _Round, elapsed: float) -> PrecisionGrid:
        successes = _at_least(round_, "surv")
        trials = round_.groups[0].trials
        point, low, high = wilson_bounds(successes, trials, z)
        return PrecisionGrid(
            round_.ns, round_.fs, successes, trials, confidence, point, low, high,
            target_half_width, elapsed, topology,
        )

    return grid


def _padded_sweep(
    groups: list[_SweepGroup],
    draw,
    round_grid,
    iterations: int,
    batch: int,
    target_half_width: float | None,
    confidence: float,
    max_iterations: int | None,
    precision: bool,
) -> dict[int, dict[int, float]] | dict[int, dict[int, CellPrecision]]:
    """The sweep loop — the only one — behind every Monte Carlo estimator.

    Per round: fix the round's ``size``, let ``draw(active, size)`` sample
    and fold ``size`` more trials into every open group's histograms
    (:func:`_stacked_draw` for the CRN estimators), tick the heartbeat,
    then read every open group's whole f-grid off those histograms through
    one ``round_grid(round_, elapsed) ->``
    :class:`~repro.obs.precision.PrecisionGrid` call, ``round_`` the
    open groups' :class:`_Round` — every ``f`` of every group from one
    sampling pass, as columns, group after group.  One ``stats.grid``
    event per round is emitted straight from the columns; a
    :class:`~repro.obs.precision.CellPrecision` is built only for a cell a
    caller keeps (frozen in adaptive mode, or ``precision=True``).

    Fixed-count mode runs exactly ``iterations`` trials per group in
    ``batch``-sized rounds and returns ``{group.n: {f: estimate}}`` in the
    order of ``fs`` (``precision=True`` upgrades the values to
    :class:`~repro.obs.precision.CellPrecision` records at ``confidence``).

    Adaptive-stopping mode (``target_half_width`` set): ``iterations`` is
    the first round, then the trial count doubles per round up to ``batch``
    — overshoot past a cell's true stopping point is at most 2x and CI
    checks stay O(log trials).  Each cell is *frozen* the first time its
    half-width at ``confidence`` reaches the target (the round grid's
    ``met`` column); a group stops drawing
    once all its cells are frozen or it hits ``max_iterations`` (default
    ``DEFAULT_MAX_ADAPTIVE_TRIALS``; remaining cells are then frozen below
    target: best effort, not an error).
    Returns ``{group.n: {f: CellPrecision}}``.

    Reproducibility: the round schedule depends only on shared totals,
    never on which cells or groups are still open, and NumPy fills arrays
    from a stream in row-major order, so trial consumption is
    batching-invariant.  Hence a cell frozen at ``T`` trials is
    **byte-identical** to a fixed-count run at ``iterations=T`` on the same
    stream, and every group of a multi-group run is byte-identical to its
    solo run.  Every round's cell snapshots are published, one ``stats.grid``
    flight event per round, when a recorder is installed.
    """
    _check_integer("iterations", iterations)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    _check_integer("batch", batch)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    for group in groups:
        if len(group.fs) == 0:
            raise ValueError("fs must name at least one failure count")
    adaptive = target_half_width is not None
    if adaptive:
        if not target_half_width > 0:
            raise ValueError(f"target_half_width must be positive, got {target_half_width}")
        if max_iterations is None:
            max_iterations = DEFAULT_MAX_ADAPTIVE_TRIALS
        _check_integer("max_iterations", max_iterations)
        if max_iterations < iterations:
            raise ValueError(
                f"max_iterations must be >= iterations ({iterations}), got {max_iterations}"
            )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    budget = max_iterations if adaptive else iterations
    total = 0
    drawn = 0
    active = list(groups)
    round_ = _round(active)
    grid = None
    started = perf_counter()
    while active and total < budget:
        if adaptive:
            size = min(iterations if total == 0 else total, batch, budget - total)
        else:
            size = min(budget - total, batch)
        draw(active, size)
        total += size
        drawn += size * len(active)
        for group in active:
            group.trials = total
        hb = heartbeat()
        if hb is not None:  # one global lookup per round
            hb.add(size * len(active))
        # Per-round precision snapshots on the flight channel (same None-check
        # discipline): one grid per round, and only when a recorder is
        # installed or the cells are read.
        recording = flight_recorder() is not None
        elapsed = perf_counter() - started
        if adaptive:
            exhausted = total >= budget
            grid = round_grid(round_, elapsed)
            met = grid.met_target.tolist()
            published = []
            entry = 0
            for group in active:
                for f in group.fs:
                    if f not in group.frozen:
                        if met[entry] or exhausted:
                            group.frozen[f] = grid.cell(entry)
                        published.append((entry, f in group.frozen))
                    entry += 1
            if recording:
                grid.publish(published)
            still_open = [g for g in active if len(g.frozen) < len(set(g.fs))]
            if still_open and len(still_open) < len(active):
                round_ = _round(still_open)
            active = still_open
        elif recording or total >= budget:
            grid = round_grid(round_, elapsed)
            if recording:
                done = total >= budget
                grid.publish((i, done) for i in range(len(grid.fs)))
    # One timing pair + registry update per call (not per round): the
    # instrumentation cost is amortized over the whole iteration budget.
    elapsed = perf_counter() - started
    publish_mc_throughput(drawn, elapsed)
    results: dict[int, dict] = {}
    if adaptive:
        for group in groups:
            results[group.n] = {f: group.frozen[f] for f in group.fs}
        return results
    # fixed-count: every group was open in the last round, whose grid holds them in order
    point = grid.point.tolist()
    entry = 0
    for group in groups:
        cells = range(entry, entry + len(group.fs))
        if precision:
            results[group.n] = {grid.fs[i]: grid.cell(i) for i in cells}
        else:
            results[group.n] = {grid.fs[i]: point[i] for i in cells}
        entry = cells.stop
    return results


def _full_grid_fs(ns: tuple[int, ...], fs) -> dict[int, tuple[int, ...]]:
    """Normalize ``fs`` (one tuple, or a per-N mapping) and validate ranges."""
    if len(ns) == 0:
        raise ValueError("ns must name at least one cluster size")
    if len(set(ns)) != len(ns):
        raise ValueError(f"ns must be unique, got {ns}")
    per_n = dict(fs) if isinstance(fs, dict) else {n: tuple(fs) for n in ns}
    for n in ns:
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        if n not in per_n:
            raise ValueError(f"fs must cover every n in ns; missing n={n}")
        width = 2 * n + 2
        for f in per_n[n]:
            _check_integer("f", f)
            if not 0 <= f <= width:
                raise ValueError(f"f must be in [0, {width}], got {f}")
    return {n: tuple(per_n[n]) for n in ns}


def simulate_full_grid(
    ns: tuple[int, ...],
    fs,
    iterations: int,
    rngs: dict[int, np.random.Generator],
    two_hop: bool = True,
    batch: int = 200_000,
    target_half_width: float | None = None,
    confidence: float = 0.95,
    max_iterations: int | None = None,
    precision: bool = False,
    method: str = "crn",
) -> dict[int, dict[int, float]] | dict[int, dict[int, CellPrecision]]:
    """Monte Carlo P[Success] over the *entire* (N, f) grid: the sweep loop, one group per N.

    The figure-2/figure-3 workhorse and the general form of the dual-hub
    estimators: every cluster size is one group of :func:`_padded_sweep`,
    so each round streams all open groups' rows through one reused key tile
    (:func:`_stacked_draw`), one widths-masked :func:`connectivity_levels`
    call per tile — never a round-sized matrix.  Fixed-count, adaptive
    (``target_half_width``), ``precision=True`` and the byte-identity
    contract are the loop's; the result is one inner dict per N,
    ``{n: {f: ...}}``.

    ``fs`` is one failure-count tuple shared by every N, or a mapping
    ``{n: fs}`` for per-N domains (the paper grid's ``f < N`` restriction).
    ``method`` selects the estimator: ``"crn"`` (crude common-random-
    numbers frequency counting), ``"stratified"`` (hub-state
    stratification: the closed-form strata of Equation 1 absorb the hub
    dimension and only the both-hubs-up stratum is sampled, over NIC-only
    keys), or ``"stratified-cv"`` (stratified plus the endpoint-dead
    control variate) — see :mod:`repro.analysis.variance` and
    docs/model.md §11.  Stratified cells carry stratified intervals in
    place of Wilson.

    ``rngs`` maps every N to the generator its group draws from.  With
    one independent stream per N, any (N, f)-subset of the grid
    reproduces exactly that slice of the full run; one generator under
    every N is a single shared stream, consumed round by round in N order.
    """
    ns = tuple(ns)
    per_n_fs = _full_grid_fs(ns, fs)
    _check_method(method)
    missing = [n for n in ns if n not in rngs]
    if missing:
        raise ValueError(f"rngs must cover every n in ns; missing n={missing[0]}")
    if method != "crn":
        from repro.analysis.variance import _nic_group, _stratified_full_grid

        return _stratified_full_grid(
            [_nic_group(n, rngs[n], per_n_fs[n]) for n in ns],
            iterations,
            two_hop,
            batch,
            method == "stratified-cv",
            target_half_width,
            confidence,
            max_iterations,
            precision,
        )

    def levels(keys: np.ndarray, widths: np.ndarray | None) -> dict[str, np.ndarray]:
        return {"surv": connectivity_levels(keys, two_hop=two_hop, widths=widths)}

    return _padded_sweep(
        [_SweepGroup(n, 2 * n + 2, rngs[n], per_n_fs[n]) for n in ns],
        _stacked_draw(levels),
        _crn_grid(confidence, target_half_width),
        iterations,
        batch,
        target_half_width,
        confidence,
        max_iterations,
        precision,
    )


def simulate_grid(
    n: int,
    fs: tuple[int, ...],
    iterations: int,
    rng: np.random.Generator,
    two_hop: bool = True,
    batch: int = 200_000,
    target_half_width: float | None = None,
    confidence: float = 0.95,
    max_iterations: int | None = None,
    precision: bool = False,
    method: str = "crn",
) -> dict[int, float] | dict[int, CellPrecision]:
    """Monte Carlo P[Success] at one N for *every* ``f`` in ``fs`` at once.

    The one-N case of :func:`simulate_full_grid` — same loop, same modes,
    same ``method`` names, so a full-grid slice on the same generator and
    this call are byte-identical — returning the inner ``{f: ...}`` dict.
    One sampling pass serves every ``f``, and the shared draws make the
    estimates monotone in ``f`` by construction (nested failure sets), so
    Figure 2/3 curve crossovers cannot jitter.  A point is the one-cell
    grid: ``simulate_grid(n, (f,), iterations, rng)[f]``.
    """
    return simulate_full_grid(
        (n,),
        tuple(fs),
        iterations,
        {n: rng},
        two_hop=two_hop,
        batch=batch,
        target_half_width=target_half_width,
        confidence=confidence,
        max_iterations=max_iterations,
        precision=precision,
        method=method,
    )[n]
