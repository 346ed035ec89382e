"""The breakdown search is bracketed by the f-grid a sweep reads.

A sweep reads its threshold histograms only through ``_at_least`` at its
``fs``, so :func:`~repro.analysis.topokernel._levels_within` searches each
row's threshold only inside ``[max(min(fs) - 1, 0), max(fs) + 1)``.  A
threshold outside comes back clipped to the bracket's edge, which moves
no count the sweep takes.  Held here:

* on random and on tied keys, every catalog family and predicate: the
  bracketed search is the full-range search clipped to the bracket;
* the same families and predicates, weighted and uniform, ``crn`` and
  ``stratified``, fixed-count and adaptive, on the f-grid shapes
  ``(0, ...)``, ``(width,)``, one ``f`` and a gapped ``(1, 8)``: every
  cell equals the cell a full-range search gives;
* a sweep round of the generic kernel takes no more predicate passes than
  its bracket needs.
"""

from __future__ import annotations

from dataclasses import replace
from math import ceil, log2

import numpy as np
import pytest

from repro.analysis import montecarlo, simulate_topology_grid, topokernel
from repro.analysis.topokernel import _levels_within, topology_connectivity_levels
from repro.experiments.topologysweep import DEFAULT_TOPOLOGIES
from repro.topology import build_topology
from tests.analysis.test_ties import ALPHABET
from tests.conftest import keyed
from tests.topology.test_oracle import PREDICATES

SEED = 20_261_020


def catalog(spec: str):
    """A family small enough to sweep many times, wide enough for ``fs = (1, 8)``."""
    return build_topology(spec, size=1 if spec == "multicluster" else 4)


def fs_shapes(width: int) -> list[tuple[int, ...]]:
    return [(0, 1, 2, 3), (width,), (width // 2,), (1, 8)]


def tied_draw(rng: np.random.Generator, out: np.ndarray) -> None:
    """The draw step with keys from the tie-heavy alphabet: nearly every row ties."""
    out[...] = rng.choice(ALPHABET, size=out.shape)


def full_range(topology, keys, predicate, fs):
    return _levels_within(topology, keys, predicate, (0, keys.shape[1]))


@pytest.mark.parametrize("draw", ["random", "tied"])
@pytest.mark.parametrize("predicate", sorted(PREDICATES))
@pytest.mark.parametrize("spec", DEFAULT_TOPOLOGIES)
def test_a_bracketed_search_is_the_full_search_clipped(spec, predicate, draw):
    topology = catalog(spec)
    rng = np.random.default_rng(SEED)
    shape = (300, topology.width)
    keys = rng.choice(ALPHABET, size=shape) if draw == "tied" else rng.random(shape)
    pred = PREDICATES[predicate]
    full = topology_connectivity_levels(topology, keys, pred)
    for fs in fs_shapes(topology.width):
        np.testing.assert_array_equal(
            _levels_within(topology, keys, pred, fs), np.clip(full, max(min(fs) - 1, 0), max(fs))
        )


def _sweeps(topology, predicate, fs):
    """Every (method, weights, mode) sweep of ``fs``: ``{label: cells}``, timings zeroed."""
    weights = tuple(1.0 + i % 3 for i in range(topology.width))
    runs = {}
    for method, weighted in (("crn", False), ("crn", True), ("stratified", False)):
        swept = replace(topology, weights=weights) if weighted else topology
        for adaptive in (False, True):
            label = f"{method}/weighted={weighted}/adaptive={adaptive}"
            mode = (
                {"iterations": 16, "batch": 64, "target_half_width": 0.2, "max_iterations": 128}
                if adaptive
                else {"iterations": 60, "batch": 30}
            )
            cells = simulate_topology_grid(
                swept, fs, rng=keyed(SEED, label), predicate=predicate, method=method,
                precision=True, **mode,
            )
            runs[label] = {f: replace(cell, elapsed_s=0.0) for f, cell in cells.items()}
    return runs


@pytest.mark.parametrize("draw", ["random", "tied"])
@pytest.mark.parametrize("predicate", sorted(PREDICATES))
@pytest.mark.parametrize("spec", DEFAULT_TOPOLOGIES)
def test_every_sweep_cell_equals_the_full_range_cell(monkeypatch, spec, predicate, draw):
    if draw == "tied":
        monkeypatch.setattr(montecarlo, "_draw_keys", tied_draw)  # the crn draw step
        monkeypatch.setattr(topokernel, "_draw_keys", tied_draw)  # the stratified one
    topology = catalog(spec)
    for fs in fs_shapes(topology.width):
        bracketed = _sweeps(topology, PREDICATES[predicate], fs)
        with monkeypatch.context() as full:
            full.setattr(topokernel, "_levels_within", full_range)
            assert _sweeps(topology, PREDICATES[predicate], fs) == bracketed, fs


@pytest.mark.parametrize("fs", [(6, 7, 8), (1,), (3, 9), (0, 2)])
@pytest.mark.parametrize("spec", ["fattree3", "multicluster"])
def test_a_sweep_round_takes_only_the_passes_its_bracket_needs(monkeypatch, spec, fs):
    topology = catalog(spec)
    calls = []

    def counted(*args):
        calls.append(args)
        return connected(*args)

    connected = topokernel._connected_t
    monkeypatch.setattr(topokernel, "_connected_t", counted)
    simulate_topology_grid(topology, fs, 500, keyed(SEED, spec), batch=500)
    assert len(calls) <= ceil(log2(max(fs) - max(min(fs) - 1, 0) + 1))
