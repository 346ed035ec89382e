"""Tied 32-bit keys: every level kernel resolves a tie the same way, on every host.

The CRN draw hands the kernels ``uint32`` keys, so two sites of a row tie
with probability about ``w^2 / 2^33``.  The closed forms
(``connectivity_levels``, ``nic_connectivity_levels``,
``endpoint_dead_levels``) count the keys *strictly below* a row's critical
key, so tied sites fail together: the level-``f`` failure set is every site
with fewer than ``f`` keys below its own (its competition rank).  Asserted
here on key matrices drawn from a six-letter alphabet plus the padding key,
so nearly every row ties:

* each closed form equals its predicate evaluated on ``ranks < f`` at every
  ``f``, padded rows included;
* the generic binary search (``topology_connectivity_levels``, which fails
  every key at most a row's ``f``-th smallest, so no level depends on how
  a sort orders equal keys) equals the row-wise reference BFS for every
  catalog family and predicate, and the dual-hub fast path equals the
  generic search.

Across hosts, the same levels come out whichever sort kernel NumPy
dispatches to: with its x86 SIMD kernels turned off, the generic search's
levels on tied keys do not move.

A tie does not fail in site order: in the row ``[5, 5, 9, 9, 9, 9]`` both
hubs fail together at level 1, where failing hub 0 alone would leave the
pair connected.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import connectivity_levels, topology_connectivity_levels
from repro.analysis.montecarlo import _PAD_KEY, pair_connected_vec
from repro.analysis.variance import endpoint_dead_levels, nic_connectivity_levels
from repro.experiments.topologysweep import DEFAULT_TOPOLOGIES
from repro.topology import build_topology, dual_hub_cluster
from tests.topology.test_oracle import PREDICATES, reference_levels, strip_fast_paths

ALPHABET = np.array([0, 1, 2, 3, 4, _PAD_KEY], dtype=np.uint32)
SRC = Path(__file__).resolve().parents[2] / "src"
#: NumPy's x86 SIMD sort kernels (AVX2 and AVX-512) off: ``sort`` takes its scalar code
NO_SIMD_SORT = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"}
#: prints, per catalog family, the digest of the generic search's levels over tied keys
SORT_PROBE = """
import hashlib
import numpy as np
from repro.analysis import topology_connectivity_levels
from repro.experiments.topologysweep import DEFAULT_TOPOLOGIES
from repro.topology import PairConnected, build_topology
alphabet = np.array([0, 1, 2, 3, 4, 0xFFFFFFFF], dtype=np.uint32)
for spec in DEFAULT_TOPOLOGIES:
    topology = build_topology(spec, size=4)
    keys = np.random.default_rng(0).choice(alphabet, size=(2_000, topology.width))
    levels = topology_connectivity_levels(topology, keys, PairConnected())
    print(spec, hashlib.sha256(levels.astype("<i8").tobytes()).hexdigest())
"""


def tied_keys(rows: int, width: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).choice(ALPHABET, size=(rows, width))


def competition_ranks(keys: np.ndarray) -> np.ndarray:
    """``[r, i]`` = how many keys of row ``r`` lie strictly below ``keys[r, i]``."""
    return (keys[:, None, :] < keys[:, :, None]).sum(axis=2)


def test_a_tie_fails_together():
    keys = np.array([[5, 5, 9, 9, 9, 9]], dtype=np.uint32)
    assert connectivity_levels(keys).tolist() == [0]
    hub0_alone = np.array([[True, False, False, False, False, False]])
    assert pair_connected_vec(hub0_alone).tolist() == [True]


@pytest.mark.parametrize("two_hop", [True, False])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_dual_hub_closed_forms_equal_the_predicate_on_competition_ranks(n, two_hop):
    width = 2 * n + 2
    keys = tied_keys(3_000, width, n)
    ranks = competition_ranks(keys)
    nic_keys = keys[:, 2:]
    nic_ranks = competition_ranks(nic_keys)
    levels = connectivity_levels(keys, two_hop=two_hop)
    nic_levels = nic_connectivity_levels(nic_keys, two_hop=two_hop)
    dead_levels = endpoint_dead_levels(nic_keys)
    hubs_up = np.zeros((len(keys), 2), dtype=bool)
    for f in range(width + 1):
        np.testing.assert_array_equal(levels >= f, pair_connected_vec(ranks < f, two_hop))
        nic_failed = np.hstack([hubs_up, nic_ranks < f])
        np.testing.assert_array_equal(nic_levels >= f, pair_connected_vec(nic_failed, two_hop))
        dead = (nic_failed[:, 2] & nic_failed[:, 3]) | (nic_failed[:, 4] & nic_failed[:, 5])
        np.testing.assert_array_equal(dead_levels < f, dead)


def test_padded_rows_tie_with_the_padding_key_and_still_count_alone():
    narrow, wide = tied_keys(500, 8, 1), tied_keys(500, 14, 2)
    padded = np.vstack([np.hstack([narrow, np.full((500, 6), _PAD_KEY, np.uint32)]), wide])
    widths = np.repeat([8, 14], 500)
    np.testing.assert_array_equal(
        connectivity_levels(padded, widths=widths),
        np.concatenate([connectivity_levels(narrow), connectivity_levels(wide)]),
    )
    for kernel in (nic_connectivity_levels, endpoint_dead_levels):
        np.testing.assert_array_equal(
            kernel(padded, widths=widths), np.concatenate([kernel(narrow), kernel(wide)])
        )


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
@pytest.mark.parametrize("spec", DEFAULT_TOPOLOGIES)
def test_generic_search_equals_the_reference_on_tied_keys(spec, predicate):
    topology = build_topology(spec, size=2 if spec != "multicluster" else 1)
    keys = tied_keys(200, topology.width, len(spec))
    np.testing.assert_array_equal(
        topology_connectivity_levels(topology, keys, PREDICATES[predicate]),
        reference_levels(topology, keys, PREDICATES[predicate]),
    )


@pytest.mark.parametrize("n", [2, 5])
def test_the_dual_hub_fast_path_equals_the_generic_search_on_tied_keys(n):
    keys = tied_keys(2_000, 2 * n + 2, n)
    np.testing.assert_array_equal(
        topology_connectivity_levels(strip_fast_paths(dual_hub_cluster(n)), keys),
        connectivity_levels(keys),
    )


def _probe(features: dict) -> list[str]:
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{os.environ.get('PYTHONPATH', '')}", **features)
    proc = subprocess.run([sys.executable, "-c", SORT_PROBE], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_levels_do_not_depend_on_the_sort_dispatch():
    off = dict(os.environ, **NO_SIMD_SORT)
    if subprocess.run([sys.executable, "-c", "import numpy"], env=off).returncode != 0:
        pytest.skip(f"this NumPy cannot start with {NO_SIMD_SORT}")
    digests = _probe({})
    assert len(digests) == len(DEFAULT_TOPOLOGIES)
    assert digests == _probe(NO_SIMD_SORT)
