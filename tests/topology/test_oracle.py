"""Exhaustive and statistical oracles for the generic topology kernels.

Four layers of evidence that the generic machinery computes the same
quantity as the specialized dual-hub kernels and as Equation 1:

* exhaustive — every failure subset at n in {2, 3}: pure-Python
  reachability == bit-packed BFS == ``pair_connected_vec``;
* algebraic — breakdown thresholds from the generic binary search match
  the hand-derived ``connectivity_levels``, and the dual-hub fast path
  makes the generic grid replay the specialized grid byte for byte;
* statistical — the generic Monte Carlo estimator agrees with Equation 1
  within a Wilson 99.9% interval on the paper's grid;
* differential — thresholds and quick-profile CSV digests recorded from the
  dense float32 matmul kernel this one replaced (``data/``), plus the
  packed layout's own edge cases (word padding, empty CSR segments, rank
  dtypes, large V).
"""

import hashlib
import json
from dataclasses import replace
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    connectivity_levels,
    enumerate_topology_success,
    exact_topology_success,
    simulate_topology_grid,
    success_probability,
    topology_connected_vec,
    topology_connectivity_levels,
)
from repro.analysis.exact import good_combinations
from repro.analysis.montecarlo import pair_connected_vec
from repro.analysis.stats import wilson_interval
from tests.conftest import keyed
from repro.experiments.topologysweep import DEFAULT_TOPOLOGIES
from repro.topology import (
    AllTerminalsConnected,
    PairConnected,
    TerminalQuorum,
    Topology,
    build_topology,
    dual_hub_cluster,
    k_hub_cluster,
)

DATA = Path(__file__).parent / "data"
PREDICATES = {
    "pair": PairConnected(),
    "all-terminals": AllTerminalsConnected(),
    "quorum": TerminalQuorum(),
}


def strip_fast_paths(topology):
    """The same topology with specialized kernels detached.

    Forces every call through the generic batched-BFS / binary-search
    path — the thing these oracles are actually probing.
    """
    return replace(topology, connected_fn=None, levels_fn=None, exact_fn=None)


def _all_failure_matrices(width: int, f: int) -> np.ndarray:
    """Every size-``f`` failure subset of ``width`` sites, one per row."""
    subsets = list(combinations(range(width), f))
    failed = np.zeros((len(subsets), width), dtype=bool)
    for row, subset in enumerate(subsets):
        failed[row, list(subset)] = True
    return failed


REFERENCE_SIZES = pytest.mark.parametrize("n", [2, 3])  # pure-Python BFS per subset


class TestExhaustiveEquivalence:
    """Generic BFS == specialized kernel == reference BFS, every subset."""

    @REFERENCE_SIZES
    def test_all_three_predicates_agree_on_every_failure_set(self, n):
        topology = dual_hub_cluster(n)
        generic = strip_fast_paths(topology)
        width = topology.width
        for f in range(width + 1):
            failed = _all_failure_matrices(width, f)
            via_bfs = topology_connected_vec(generic, failed)
            via_specialized = pair_connected_vec(failed)
            via_reference = np.array(
                [topology.connected(np.flatnonzero(row)) for row in failed]
            )
            np.testing.assert_array_equal(via_bfs, via_specialized)
            np.testing.assert_array_equal(via_bfs, via_reference)

    @REFERENCE_SIZES
    def test_fast_path_dispatch_matches_generic_bfs(self, n):
        topology = dual_hub_cluster(n)
        failed = _all_failure_matrices(topology.width, 3)
        np.testing.assert_array_equal(
            topology_connected_vec(topology, failed),
            topology_connected_vec(strip_fast_paths(topology), failed),
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])  # 2^14 failure sets at n = 6
    def test_enumeration_matches_equation1_at_every_f(self, n):
        topology = strip_fast_paths(dual_hub_cluster(n))
        for f in range(topology.width + 1):
            enumerated = enumerate_topology_success(topology, f)
            # the same two integers Equation 1 counts, so the same float
            assert enumerated == good_combinations(n, f) / comb(topology.width, f)
            assert enumerated == pytest.approx(success_probability(n, f), abs=1e-12)

    @REFERENCE_SIZES
    def test_exact_dispatch_uses_the_closed_form(self, n):
        topology = dual_hub_cluster(n)
        for f in range(topology.width + 1):
            assert exact_topology_success(topology, f) == success_probability(n, f)


class TestLevelsEquivalence:
    def test_binary_search_matches_hand_derived_thresholds(self):
        topology = strip_fast_paths(dual_hub_cluster(6))
        keys = np.random.default_rng(7).random((4000, topology.width))
        np.testing.assert_array_equal(
            topology_connectivity_levels(topology, keys),
            connectivity_levels(keys),
        )

    def test_levels_encode_the_breakdown_threshold(self):
        # level >= f  iff  the f smallest keys leave the pair connected
        topology = strip_fast_paths(k_hub_cluster(3, hubs=3))
        rng = np.random.default_rng(11)
        keys = rng.random((500, topology.width))
        levels = topology_connectivity_levels(topology, keys)
        ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
        for f in range(topology.width + 1):
            np.testing.assert_array_equal(
                levels >= f, topology_connected_vec(topology, ranks < f)
            )

    def test_custom_predicates_keep_the_row_wise_reference_fallback(self):
        class PairWhileHubZeroUp(PairConnected):
            kind = "pair-while-hub-0-up"  # no packed acceptance rule for this kind

            def holds(self, topology, failed):
                return 0 not in failed and super().holds(topology, failed)

        topology = k_hub_cluster(3, hubs=2)
        predicate = PairWhileHubZeroUp()
        failed = np.random.default_rng(3).random((70, topology.width)) < 0.3
        np.testing.assert_array_equal(
            topology_connected_vec(topology, failed, predicate),
            reference_connected(topology, failed, predicate),
        )
        keys = np.random.default_rng(4).random((70, topology.width))
        np.testing.assert_array_equal(
            topology_connectivity_levels(topology, keys, predicate),
            reference_levels(topology, keys, predicate),
        )

    def test_dual_hub_grid_is_byte_identical_to_specialized_sweep(self):
        from repro.analysis import simulate_grid

        fs = (1, 2, 3, 4, 5)
        specialized = simulate_grid(8, fs, 20_000, np.random.default_rng(42))
        generic = simulate_topology_grid(
            dual_hub_cluster(8), fs, 20_000, np.random.default_rng(42)
        )
        assert specialized == generic  # same draws, same thresholds, exactly

    def test_dual_hub_grid_never_enters_the_packed_bfs(self, monkeypatch):
        # "generality is free for the paper": the attached kernels answer the
        # dual-hub grid; the same graph without them pays a BFS per search step
        import repro.analysis.topokernel as topokernel
        from repro.analysis import simulate_grid

        calls = []
        real = topokernel._packed_reach
        monkeypatch.setattr(
            topokernel, "_packed_reach", lambda *args: calls.append(1) or real(*args)
        )
        fs = (2, 3, 4, 5, 6)
        generic = simulate_topology_grid(dual_hub_cluster(63), fs, 20_000, np.random.default_rng(0))
        assert not calls
        assert generic == simulate_grid(63, fs, 20_000, np.random.default_rng(0))
        simulate_topology_grid(k_hub_cluster(63, hubs=2), fs, 20_000, np.random.default_rng(0))
        assert calls

    def test_generic_path_grid_agrees_statistically(self):
        # no fast path: same estimator, independent verification of the BFS
        fs = (2, 3, 4)
        cells = simulate_topology_grid(
            strip_fast_paths(dual_hub_cluster(6)),
            fs,
            40_000,
            np.random.default_rng(5),
            precision=True,
        )
        for f in fs:
            interval = wilson_interval(cells[f].successes, cells[f].trials, 0.999)
            assert interval.low <= success_probability(6, f) <= interval.high


class TestWilsonAgreementOnPaperGrid:
    """Generic MC vs Equation 1 on the Figure 2 grid, at 99.9% confidence.

    With 9 cells a false failure has probability ~0.9% even if every
    kernel is correct-by-construction; the fixed seeds pin the outcome.
    """

    GRID = [(n, f) for n in (4, 8, 16) for f in (2, 3, 4)]

    @pytest.mark.parametrize("n,f", GRID)
    def test_generic_estimate_covers_equation1(self, n, f):
        topology = strip_fast_paths(dual_hub_cluster(n))
        trials = 60_000
        rng = keyed(900 + 10 * n + f, f"topo/{topology.name}/f={f}")
        p_hat = simulate_topology_grid(topology, (f,), trials, rng)[f]
        interval = wilson_interval(round(p_hat * trials), trials, 0.999)
        assert interval.low <= success_probability(n, f) <= interval.high


class TestSharedValidation:
    """Satellite: the f-range contract is one ValueError across all layers."""

    def test_equation1_names_the_component_count(self):
        with pytest.raises(ValueError, match="10 failable components, got 11"):
            success_probability(4, 11)
        with pytest.raises(ValueError, match="f must be in"):
            success_probability(4, -1)

    def test_generic_kernels_share_the_contract(self):
        topology = dual_hub_cluster(4)  # width 10, same universe as N=4
        for call in (
            lambda: simulate_topology_grid(topology, (11,), 100, np.random.default_rng(1)),
            lambda: simulate_topology_grid(topology, (2, 11), 100, np.random.default_rng(1)),
            lambda: enumerate_topology_success(topology, 11),
            lambda: exact_topology_success(topology, 11),
        ):
            with pytest.raises(ValueError, match="10 failable components, got 11"):
                call()

    def test_dead_at_zero_failures_is_rejected_not_estimated(self):
        from repro.topology import PairConnected, Topology

        # two isolated vertices: the pair predicate fails before any failure
        dead = Topology(
            "split", "test", ("node", "node", "nic"), (), (2,), (0, 1),
            predicate=PairConnected(0, 1),
        )
        with pytest.raises(ValueError, match="zero failures"):
            simulate_topology_grid(dead, (1,), 100, np.random.default_rng(1))

    @pytest.mark.parametrize("strip", [False, True], ids=["fast-path", "generic"])
    def test_matrix_shape_is_checked_before_fast_path_dispatch(self, strip):
        # a width-10 topology handed a width-8 matrix: the dual-hub fast
        # path used to answer it silently while generic families raised
        topology = dual_hub_cluster(4)
        if strip:
            topology = strip_fast_paths(topology)
        with pytest.raises(ValueError, match=r"failure matrix must be \(iterations, 10\)"):
            topology_connected_vec(topology, np.zeros((3, 8), dtype=bool))
        with pytest.raises(ValueError, match=r"key matrix must be \(iterations, 10\)"):
            topology_connectivity_levels(topology, np.random.default_rng(0).random((3, 8)))
        with pytest.raises(ValueError, match="key matrix must be"):
            topology_connectivity_levels(topology, np.zeros(10))


# ------------------------------------------------------------ differential
LEVELS_FIXTURE = DATA / "topokernel_levels.json"
QUICK_DIGESTS = DATA / "topologysweep_quick.sha256"


def differential_levels(spec: str, size: int) -> dict[str, dict]:
    """Digest + histogram of 1,000 fixed-seed thresholds per predicate.

    An explicit predicate bypasses the dual-hub ``levels_fn``, so all five
    families go through the generic kernel.
    """
    topology = build_topology(spec, size=size)
    keys = np.random.default_rng([20260929, size]).random((1000, topology.width))
    record = {}
    for name, predicate in PREDICATES.items():
        levels = topology_connectivity_levels(topology, keys, predicate)
        record[name] = {
            "sha256": hashlib.sha256(levels.astype("<i8").tobytes()).hexdigest(),
            "histogram": np.bincount(levels).tolist(),
        }
    return record


class TestDifferentialAgainstTheDenseKernel:
    """The packed kernel reproduces the replaced kernel's exact integers.

    ``data/topokernel_levels.json`` and ``data/topologysweep_quick.sha256``
    were recorded at commit 8bba4ff, the last one carrying the dense
    float32 matmul-BFS (``python tests/topology/test_oracle.py`` re-records
    the first; ``sha256sum *.csv`` in a ``--quick topologysweep`` output
    directory the second).  The CSV digests were re-recorded once, when
    the sweep's keys became 32-bit halves of raw PCG64 words (the
    thresholds, over fixed float keys, did not move).  They are frozen: a
    diff here means thresholds moved, and every committed topology CSV
    with them.
    """

    @pytest.mark.parametrize("size", [4, 8, 24])
    @pytest.mark.parametrize("spec", DEFAULT_TOPOLOGIES)
    def test_thresholds_equal_the_recorded_dense_kernel_output(self, spec, size):
        recorded = json.loads(LEVELS_FIXTURE.read_text())
        assert differential_levels(spec, size) == recorded[f"{spec}/size={size}"]

    def test_quick_topologysweep_csvs_match_the_pinned_digests(self, tmp_path):
        from repro.engine import get_spec

        # all seven CSVs, the 742 k-set enumeration overlay (exact_check) included
        spec = get_spec("topologysweep")
        spec.run(**spec.kwargs("quick")).write(tmp_path)
        pinned = dict(line.split()[::-1] for line in QUICK_DIGESTS.read_text().splitlines())
        produced = sorted(path.name for path in tmp_path.glob("topologysweep_*.csv"))
        assert produced == sorted(pinned) and len(produced) == len(DEFAULT_TOPOLOGIES) + 2
        for name in produced:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned[name]


# ------------------------------------------------------------ packed layout
def reference_levels(topology, keys, predicate=None) -> np.ndarray:
    """Breakdown thresholds by row-wise reference BFS (slow, assumption-free).

    The level-``f`` failure set is every site with fewer than ``f`` keys of
    its row strictly below its own: the row's ``f`` smallest keys, and on a
    tie every key tied with the ``f``-th, which fail together.
    """
    levels = []
    for row in keys:
        below = (row[None, :] < row[:, None]).sum(axis=1)
        f = 0
        while f < topology.width and topology.connected(np.flatnonzero(below <= f), predicate):
            f += 1
        levels.append(f)
    return np.array(levels, dtype=np.int64)


def reference_connected(topology, failed, predicate=None) -> np.ndarray:
    return np.array(
        [topology.connected(np.flatnonzero(row), predicate) for row in failed], dtype=bool
    )


@pytest.mark.parametrize("kind", sorted(PREDICATES))
class TestPackedLayoutEdges:
    """64 trials per word: no row count may leak padding into an answer."""

    TOPOLOGY = k_hub_cluster(4, hubs=3)

    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65])
    def test_row_counts_around_the_word_boundary(self, kind, rows):
        predicate = PREDICATES[kind]
        rng = np.random.default_rng(rows)
        keys = rng.random((rows, self.TOPOLOGY.width))
        levels = topology_connectivity_levels(self.TOPOLOGY, keys, predicate)
        assert levels.shape == (rows,)
        np.testing.assert_array_equal(levels, reference_levels(self.TOPOLOGY, keys, predicate))
        failed = rng.random((rows, self.TOPOLOGY.width)) < 0.3
        ok = topology_connected_vec(self.TOPOLOGY, failed, predicate)
        assert ok.shape == (rows,) and ok.dtype == bool
        np.testing.assert_array_equal(ok, reference_connected(self.TOPOLOGY, failed, predicate))

    def test_a_large_ragged_batch_equals_its_own_slices(self, kind):
        # 200,001 = 3,125 full words + 1 trial: every row must get the
        # answer it gets alone, whatever shares its word
        predicate = PREDICATES[kind]
        keys = np.random.default_rng(200_001).random((200_001, self.TOPOLOGY.width))
        levels = topology_connectivity_levels(self.TOPOLOGY, keys, predicate)
        assert levels.shape == (200_001,)
        for start, stop in ((0, 1), (37, 100), (64_000, 64_065), (199_990, 200_001)):
            np.testing.assert_array_equal(
                levels[start:stop],
                topology_connectivity_levels(self.TOPOLOGY, keys[start:stop], predicate),
            )
        tail = slice(200_001 - 3, 200_001)
        np.testing.assert_array_equal(
            levels[tail], reference_levels(self.TOPOLOGY, keys[tail], predicate)
        )

    @pytest.mark.parametrize("isolated", ["middle", "last"])
    def test_a_vertex_without_neighbours_is_an_empty_segment(self, kind, isolated):
        # path 0 - 1 - 2 - 3 plus one edge-less fragile vertex, placed either
        # between CSR segments or after the last one
        if isolated == "last":
            roles, edges = ("node", "nic", "nic", "node", "nic"), ((0, 1), (1, 2), (2, 3))
            sites, terminals = (1, 2, 4), (0, 3)
        else:
            roles, edges = ("node", "nic", "nic", "nic", "node"), ((0, 1), (1, 3), (3, 4))
            sites, terminals = (1, 2, 3), (0, 4)
        topology = Topology("gap", "test", roles, edges, sites, terminals)
        predicate = PREDICATES[kind]
        failed = np.concatenate([_all_failure_matrices(3, f) for f in range(4)])
        np.testing.assert_array_equal(
            topology_connected_vec(topology, failed, predicate),
            reference_connected(topology, failed, predicate),
        )
        keys = np.random.default_rng(5).random((70, 3))
        np.testing.assert_array_equal(
            topology_connectivity_levels(topology, keys, predicate),
            reference_levels(topology, keys, predicate),
        )

    def test_an_isolated_terminal_reaches_only_itself(self, kind):
        topology = Topology(
            "island", "test", ("node", "nic", "node", "node"), ((0, 1), (1, 2)), (1,), (0, 2, 3)
        )
        predicate = PREDICATES[kind]
        failed = np.array([[False], [True]])
        np.testing.assert_array_equal(
            topology_connected_vec(topology, failed, predicate),
            reference_connected(topology, failed, predicate),
        )


class TestLargeUniverses:
    """Rank dtypes past one and two bytes, and V in the thousands."""

    @pytest.mark.parametrize("size", [100, 11_000], ids=["width>255", "width>32767"])
    def test_rank_dtype_cannot_overflow(self, size):
        topology = k_hub_cluster(size, hubs=3)
        assert topology.width == 3 * size + 3
        keys = np.random.default_rng(size).random((5, topology.width))
        # the hubs and the pair's own six NICs fail last, so pair thresholds
        # (and every binary-search midpoint on the way) pass 255 / 32,767
        keys[:, :9] += 1.0
        keys[0, 0] = -1.0  # ...except one early hub loss, for a mixed batch
        # (quorum walks every terminal's component: kept to the small size)
        for kind in ("pair", "all-terminals", "quorum")[: 3 if size == 100 else 2]:
            predicate = PREDICATES[kind]
            levels = topology_connectivity_levels(topology, keys, predicate)
            assert kind != "pair" or levels.min() >= topology.width - 9
            for row, level in zip(keys, levels):
                order = np.argsort(row)
                assert topology.connected(order[:level], predicate)
                assert not topology.connected(order[: level + 1], predicate)

    def test_two_thousand_vertex_khub_matches_the_reference(self):
        topology = k_hub_cluster(500, hubs=3)
        assert topology.num_vertices == 2003
        failed = np.random.default_rng(2003).random((40, topology.width)) < 0.4
        for kind in ("pair", "quorum"):
            ok = topology_connected_vec(topology, failed, PREDICATES[kind])
            assert 0 < ok.sum() < len(ok)
            np.testing.assert_array_equal(ok, reference_connected(topology, failed, PREDICATES[kind]))
        keys = np.random.default_rng(7).random((4, topology.width))
        for row, level in zip(keys, topology_connectivity_levels(topology, keys)):
            order = np.argsort(row)
            assert topology.connected(order[:level]) and not topology.connected(order[: level + 1])


if __name__ == "__main__":  # re-record the threshold fixture (see the class docstring)
    cases = {f"{s}/size={n}": differential_levels(s, n) for s in DEFAULT_TOPOLOGIES for n in (4, 8, 24)}
    lines = [f" {json.dumps(k)}: {json.dumps(cases[k], sort_keys=True)}" for k in sorted(cases)]
    LEVELS_FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
