"""The draw step's tile size moves no value and bounds the memory.

``montecarlo._stacked_draw`` streams every round through one reused,
cache-sized key tile.  Its contract is that a tile boundary is invisible:
draw order stays group-major and every row takes its ``uint32`` keys from
``ceil(width / 2)`` raw PCG64 words of its own, low half first, so every
stream — per-N or one shared generator — yields the same keys in the same
order wherever the round is cut.  Asserted here four ways:

* the key source itself against the raw words' little-endian halves, in
  stream order, whatever the staging block;
* the draw step — every tile size, then every staging-block size, tiled
  and in whole rounds, even and odd row widths — against a whole-round
  reference written out in this file (one fresh ``(size, width)`` key
  matrix per group, the pre-tiling algorithm, keys by ``tests.conftest.crn_keys``);
* every estimator method x stream source x schedule x group shape through
  the public entry points, tile by tile, against the run at the default
  tile (larger than every round here): histograms, trial counts, returned
  cells and the generator's next draw;
* two runs that cross several default-sized tiles against values recorded
  when the draw moved to 32-bit keys.

The last tests pin the point of the tile: ``tracemalloc`` (NumPy reports
its buffers there) never sees a round-sized temporary, nor a tile-sized
one per kernel call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.analysis import montecarlo, simulate_full_grid, simulate_grid, variance
from repro.analysis.montecarlo import _stacked_draw, _SweepGroup, connectivity_levels
from tests.conftest import crn_keys, grid_stream, keyed

SEED = 20_000_915
F_VALUES = tuple(range(2, 11))
PAPER_NS = tuple(range(3, 64))
PAPER_FS = {n: tuple(f for f in F_VALUES if f < n) for n in PAPER_NS}
METHODS = ("crn", "stratified", "stratified-cv")
SHAPES = {"lone": (9,), "mixed": (2, 9, 5)}  # not sorted: tiles widen and narrow again
FS = {2: (0, 1, 3), 5: (1, 2, 4), 9: (2, 4, 8)}
SCHEDULES = {
    "fixed": {"iterations": 150, "batch": 60},
    "adaptive": {"iterations": 20, "batch": 100, "target_half_width": 0.05, "max_iterations": 400},
}
TILES = ("one-key", "prime", "divisor", "whole-round")
#: raw words per staging block: one row of the widest group, a prime, a round's worth
STAGES = {"one-row": 1, "prime": 37, "whole-round": 3 * 60 * 10}
ROUND = 60  # trials per group per round in the reference comparisons
#: row widths of groups that are no dual-hub universe: odd ones drop a half-word a row
ODD_WIDTHS = (9, 1, 7, 4)


def _seeded(ns, method: str = "crn") -> dict:
    """One child of ``SEED`` per N, keyed by N and estimator family."""
    return {n: grid_stream(SEED, n, method) for n in ns}


def _tile_keys(kind: str, widths: list[int], size: int) -> int:
    """The tile constant for ``kind``, given the groups' widths and the largest round."""
    return {
        "one-key": 1,  # below every width: one row per tile
        "prime": 251,
        "divisor": (size // 3) * widths[0],  # tile edges meet the first group's last row
        "whole-round": size * len(widths) * max(widths),
    }[kind]


def _levels(keys: np.ndarray, widths: np.ndarray | None) -> dict[str, np.ndarray]:
    return {"surv": connectivity_levels(keys, widths=widths)}


def _groups(ns: tuple[int, ...], shared: bool) -> list[_SweepGroup]:
    rng = np.random.default_rng(SEED)
    return [
        _SweepGroup(n, 2 * n + 2, rng if shared else np.random.default_rng([SEED, n]), FS[n])
        for n in ns
    ]


def _rank_of_first(keys: np.ndarray, widths: np.ndarray | None) -> dict[str, np.ndarray]:
    """A level at any width: how many of the row's real keys lie below its first."""
    return {"surv": montecarlo._count_below(keys, keys[:, 0], widths)}


def _odd_groups(shared: bool) -> list[_SweepGroup]:
    rng = np.random.default_rng(SEED)
    return [
        _SweepGroup(w, w, rng if shared else np.random.default_rng([SEED, w]), (0, 1))
        for w in ODD_WIDTHS
    ]


def _equals_the_whole_round_reference(
    monkeypatch, shape, shared, whole_rounds=False, levels=_levels, **constants
):
    """The draw step, with the ``montecarlo`` ``constants`` patched in, against the reference.

    The reference is drawn and reduced first, under the module's own
    constants, so the tile sizes under test never reach it.
    """
    size = ROUND
    def groups():
        return _odd_groups(shared) if shape == "odd" else _groups(SHAPES[shape], shared)

    reference = groups()
    for _ in range(2):  # two rounds: the histograms accumulate
        for group in reference:  # the pre-tiling draw: one fresh matrix per group
            keys = crn_keys(group.rng, size, group.width)
            thresholds = levels(keys, None)["surv"]
            group.hists["surv"] += np.bincount(thresholds, minlength=group.width + 1)
    for name, value in constants.items():
        monkeypatch.setattr(montecarlo, name, value)
    tiled = groups()
    draw = _stacked_draw(levels, whole_rounds)
    draw(tiled, size)
    draw(tiled, size)
    for want, got in zip(reference, tiled):
        assert np.array_equal(got.hists["surv"], want.hists["surv"])
        assert got.hists["surv"].sum() == 2 * size
        assert got.rng.random() == want.rng.random()


@pytest.mark.parametrize("stage", [1, 2, 5, 1 << 13])
@pytest.mark.parametrize("width", [1, 2, 7, 42, 131])
def test_keys_are_the_raw_words_halves_in_stream_order(monkeypatch, width, stage):
    monkeypatch.setattr(montecarlo, "_STAGE_WORDS", stage)
    rng, twin = np.random.default_rng(SEED), np.random.default_rng(SEED)
    keys = np.empty((33, width), dtype=np.uint32)
    montecarlo._draw_keys(rng, keys)
    words = twin.bit_generator.random_raw(33 * ((width + 1) // 2))
    halves = [[int(w) & 0xFFFFFFFF, int(w) >> 32] for w in words]
    assert keys.tolist() == [row[:width] for row in np.reshape(halves, (33, -1)).tolist()]
    assert rng.random() == twin.random()
    site_major = np.empty((width, 33), dtype=np.uint32).T  # the transposed tile layout
    montecarlo._draw_keys(np.random.default_rng(SEED), site_major)
    assert np.array_equal(site_major, keys)


def test_a_32_bit_bit_generator_is_refused():
    """MT19937's raw words carry 32 random bits: every high half would be 0."""
    rng = np.random.Generator(np.random.MT19937(SEED))
    with pytest.raises(ValueError, match="64-bit bit generator"):
        simulate_grid(5, (2,), 10, rng)


@pytest.mark.parametrize("whole_rounds", [False, True], ids=["tiled", "whole-rounds"])
@pytest.mark.parametrize("shared", [False, True], ids=["own-streams", "shared-stream"])
@pytest.mark.parametrize("tile", ["one-row", "prime", "whole-round"])
def test_odd_width_rows_are_tile_invariant(monkeypatch, tile, shared, whole_rounds):
    tile_keys = {"one-row": 1, "prime": 251, "whole-round": ROUND * sum(ODD_WIDTHS)}[tile]
    _equals_the_whole_round_reference(
        monkeypatch, "odd", shared, whole_rounds, _rank_of_first, _TILE_KEYS=tile_keys,
        _STAGE_WORDS=3,
    )


@pytest.mark.parametrize("shared", [False, True], ids=["own-streams", "shared-stream"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("tile", TILES)
def test_draw_step_equals_the_whole_round_reference(monkeypatch, tile, shape, shared):
    tile_keys = _tile_keys(tile, [2 * n + 2 for n in SHAPES[shape]], ROUND)
    _equals_the_whole_round_reference(monkeypatch, shape, shared, _TILE_KEYS=tile_keys)


@pytest.mark.parametrize("whole_rounds", [False, True], ids=["tiled", "whole-rounds"])
@pytest.mark.parametrize("shared", [False, True], ids=["own-streams", "shared-stream"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("stage", STAGES)
def test_staging_block_moves_no_value(monkeypatch, stage, shape, shared, whole_rounds):
    constants = {"_TILE_KEYS": 251, "_STAGE_WORDS": STAGES[stage]}  # tiles cut through the stages
    _equals_the_whole_round_reference(monkeypatch, shape, shared, whole_rounds, **constants)


def test_whole_rounds_hands_the_kernel_each_round_in_one_call(monkeypatch):
    """The BFS kernel's setting: per-call cost dominates, so the tile constant is not consulted."""
    monkeypatch.setattr(montecarlo, "_TILE_KEYS", 1)
    shapes = []

    def levels(keys, widths):
        shapes.append((keys.shape, widths))
        return _levels(keys, widths)

    (group,) = tiled = _groups(SHAPES["lone"], shared=False)
    (want,) = _groups(SHAPES["lone"], shared=False)
    _stacked_draw(levels, whole_rounds=True)(tiled, 500)
    assert shapes == [((500, group.width), None)]
    expected = np.bincount(connectivity_levels(crn_keys(want.rng, 500, want.width)), minlength=21)
    assert np.array_equal(group.hists["surv"], expected)


def _run(monkeypatch, ns, method, streams, schedule, tile_keys=None):
    """One public call; returns what must not depend on the tile."""
    seen: list[_SweepGroup] = []
    loop = montecarlo._padded_sweep

    def spy(groups, *args, **kwargs):
        seen.extend(groups)
        return loop(groups, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_padded_sweep", spy)
        patch.setattr(variance, "_padded_sweep", spy)
        if tile_keys is not None:
            patch.setattr(montecarlo, "_TILE_KEYS", tile_keys)
        rng = np.random.default_rng(SEED)
        source = {
            "seed": _seeded(ns, method),  # children of one seed
            "rngs": {n: np.random.default_rng([SEED, n]) for n in ns},
            "rng": dict.fromkeys(ns, rng),
        }[streams]
        fs = {n: FS[n] for n in ns}
        common = {"method": method, "precision": True, **schedule}
        if len(ns) == 1 and streams != "rngs":  # the one-N entry point
            result = {ns[0]: simulate_grid(ns[0], fs[ns[0]], rng=source[ns[0]], **common)}
        else:
            result = simulate_full_grid(ns, fs, rngs=source, **common)
    cells = {
        (n, f): dataclasses.replace(cell, elapsed_s=0.0)
        for n, row in result.items()
        for f, cell in row.items()
    }
    groups = [
        (g.n, g.trials, {track: hist.tolist() for track, hist in g.hists.items()}) for g in seen
    ]
    return cells, groups, rng.random()


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("streams", ["seed", "rngs", "rng"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shape", SHAPES)
def test_every_entry_point_is_tile_invariant(monkeypatch, shape, method, streams, schedule):
    ns, kwargs = SHAPES[shape], SCHEDULES[schedule]
    whole = _run(monkeypatch, ns, method, streams, kwargs)
    assert whole[1], "the spy saw no groups"
    widths = [2 * n + 2 if method == "crn" else 2 * n for n in ns]
    for tile in TILES:
        tile_keys = _tile_keys(tile, widths, kwargs["batch"])
        got = _run(monkeypatch, ns, method, streams, kwargs, tile_keys=tile_keys)
        assert got == whole, f"tile={tile} ({tile_keys} keys) moved a value"


def _digest(result: dict) -> str:
    flat = [(n, f, repr(value)) for n, row in result.items() for f, value in row.items()]
    return hashlib.sha256(json.dumps(flat).encode()).hexdigest()


def test_values_recorded_at_the_parent_across_default_sized_tiles():
    """Recorded when the keys became 32-bit halves of raw PCG64 words.

    First recorded from the ``src`` before ``_stacked_draw`` was tiled,
    re-recorded once for the key change (the stratified-cv digest did not
    move: on the paper grid its estimate is Equation 1 from any draw).
    N=63 at 40 000 trials is 78 default tiles; the paper grid at 1 200 is
    ~80, most of them mixing several N.  Do not re-record: a moved value
    means the draw order changed.
    """
    grid = simulate_grid(63, F_VALUES, 40_000, keyed(SEED, "mc-grid/n=63"))
    assert {f: repr(p) for f, p in grid.items()} == {
        2: "0.9989",
        3: "0.99685",
        4: "0.9943",
        5: "0.991175",
        6: "0.98735",
        7: "0.982675",
        8: "0.9772",
        9: "0.9707",
        10: "0.96375",
    }
    recorded = {
        "crn": "ed28893ca6661dfe0ed39e580da4b5e84579dcfb65a5bcd07fd311e605abf4f4",
        "stratified-cv": "be8155814ef48ec7bc7f292a4a8714f896255aa5d91ae4376bd30a94ad06c90b",
    }
    for method, digest in recorded.items():
        full = simulate_full_grid(PAPER_NS, PAPER_FS, 1_200, _seeded(PAPER_NS, method), method=method)
        assert _digest(full) == digest, method
    rng = np.random.default_rng(SEED)
    shared = simulate_full_grid(PAPER_NS, PAPER_FS, 1_200, dict.fromkeys(PAPER_NS, rng))
    assert _digest(shared) == "21b7a19cf6f7ced893db51b901f0c39380a03ca1be92ecee4768014f0a71a95d"
    assert repr(float(rng.random())) == "0.8813467931635937"


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: a 64 Ki-key tile is 512 KiB; with its staging block and the kernel's
#: temporaries over it the draw step peaks near 1.2 MiB.  Before tiling these
#: two calls peaked at 205 MB and over 300 MB (one round-sized key matrix).
PEAK_LIMIT = 6 * 2**20


def test_one_n_sweep_never_holds_a_round_of_keys():
    peak = _traced_peak(lambda: simulate_grid(63, F_VALUES, 200_000, keyed(SEED, "mc-grid/n=63")))
    assert peak < PEAK_LIMIT, f"{peak / 2**20:.1f} MiB"


def test_full_grid_sweep_never_holds_a_round_of_keys():
    peak = _traced_peak(lambda: simulate_full_grid(PAPER_NS, PAPER_FS, 5_000, _seeded(PAPER_NS)))
    assert peak < PEAK_LIMIT, f"{peak / 2**20:.1f} MiB"


#: peak traced KiB of three warm sweeps, recorded before the kernels were
#: handed a site-major tile; a fresh tile-sized transposed copy per kernel
#: call adds about 512 KiB to each
SITE_MAJOR_CALLS = {
    "one-n-63": (lambda: simulate_grid(63, F_VALUES, 40_000, keyed(SEED, "mc-grid/n=63")), 1_434),
    "one-n-3": (lambda: simulate_grid(3, (0, 1, 2), 40_000, keyed(SEED, "mc-grid/n=3")), 1_733),
    "padded": (
        lambda: simulate_full_grid(PAPER_NS[:17], PAPER_FS, 1_200, _seeded(PAPER_NS[:17])),
        1_731,
    ),
}


@pytest.mark.parametrize("name", SITE_MAJOR_CALLS)
def test_site_major_tile_costs_no_copy_per_call(name):
    call, recorded_kib = SITE_MAJOR_CALLS[name]
    call()  # first-call imports and caches are not the draw step's
    peak_kib = _traced_peak(call) / 1024
    assert peak_kib < recorded_kib + 128, f"{peak_kib:.0f} KiB"
