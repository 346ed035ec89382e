"""Exact enumeration through the packed kernel vs. a pure-Python reference.

:func:`repro.analysis.topokernel.enumerate_topology_success` generates the
``C(width, f)`` failure sets in blocks and tests them 64 per machine word.
The independent reference lives here, where references belong: one
:meth:`Topology.connected` call (pure-Python BFS) per subset, affordable
only at sizes 2-3.  Because both sides divide the same two integers, every
comparison below is ``==`` on floats, never ``approx``.
"""

from itertools import combinations
from math import comb

import pytest

import repro.analysis.topokernel as topokernel
import repro.experiments.topologysweep as topologysweep
from repro.analysis import enumerate_topology_success
from repro.experiments.topologysweep import DEFAULT_TOPOLOGIES
from repro.topology import (
    AllTerminalsConnected,
    PairConnected,
    TerminalQuorum,
    build_topology,
    k_hub_cluster,
)

#: the reference runs wherever C(width, f) is at most this: every f in
#: [0, width] for four families; the multi-cluster WAN (2^21 and 2^27 subsets
#: at sizes 2 and 3) keeps the four or five smallest and largest f.
REFERENCE_LIMIT = 6000


class PairWhileFirstSiteUp(PairConnected):
    """A predicate kind the packed domain does not know: the row-wise branch."""

    kind = "pair-while-first-site-up"

    def holds(self, topology, failed):  # ``failed`` holds vertex ids
        return topology.failure_sites[0] not in failed and super().holds(topology, failed)


PREDICATES = {
    "pair": PairConnected(),
    "all-terminals": AllTerminalsConnected(),
    "quorum": TerminalQuorum(),
    "custom": PairWhileFirstSiteUp(),
}


def reference_success(topology, f, predicate=None) -> float:
    """One pure-Python BFS per failure set — the loop the kernel replaced."""
    good = sum(
        topology.connected(subset, predicate) for subset in combinations(range(topology.width), f)
    )
    return good / comb(topology.width, f)


@pytest.mark.parametrize("kind", sorted(PREDICATES))
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("spec", DEFAULT_TOPOLOGIES)
def test_packed_enumeration_equals_the_pure_python_reference(spec, size, kind):
    topology = build_topology(spec, size=size)
    predicate = PREDICATES[kind]
    checked = 0
    for f in range(topology.width + 1):
        if comb(topology.width, f) > REFERENCE_LIMIT:
            continue
        assert enumerate_topology_success(topology, f, predicate) == reference_success(
            topology, f, predicate
        ), f"f={f}"
        checked += 1
    # every f, or both ends of the f-range where the middle is skipped
    assert checked >= min(topology.width + 1, 8)


def test_default_predicate_is_the_topologys_own():
    topology = build_topology("fattree2", size=3)
    for f in range(topology.width + 1):
        assert enumerate_topology_success(topology, f) == reference_success(topology, f)


@pytest.mark.parametrize("spec", DEFAULT_TOPOLOGIES)
def test_no_failures_and_all_failures(spec):
    topology = build_topology(spec, size=4)
    everything = range(topology.width)
    for kind, predicate in PREDICATES.items():
        assert enumerate_topology_success(topology, 0, predicate) == 1.0, kind
        assert enumerate_topology_success(topology, topology.width, predicate) == float(
            topology.connected(everything, predicate)
        ), kind


class TestBlockBoundaries:
    """No block size may change an answer: multi-block, padding word, exact fit."""

    TOPOLOGY = k_hub_cluster(4, hubs=3)  # width 15
    F = 4
    TOTAL = comb(15, 4)  # 1,365 failure sets = 21 words + 21 trials

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    @pytest.mark.parametrize("block", [1, 63, 64, 65, TOTAL])
    def test_every_block_size_gives_the_one_block_answer(self, monkeypatch, kind, block):
        predicate = PREDICATES[kind]
        whole = enumerate_topology_success(self.TOPOLOGY, self.F, predicate)
        assert 0.0 < whole < 1.0
        monkeypatch.setattr(topokernel, "_ENUMERATION_BLOCK", block)
        assert enumerate_topology_success(self.TOPOLOGY, self.F, predicate) == whole

    def test_blocks_walk_the_subsets_in_order_without_loss(self, monkeypatch):
        # the last block is ragged (1,365 = 10 * 128 + 85): every subset must
        # be seen exactly once for the count to match the reference
        monkeypatch.setattr(topokernel, "_ENUMERATION_BLOCK", 128)
        assert enumerate_topology_success(self.TOPOLOGY, self.F) == reference_success(
            self.TOPOLOGY, self.F
        )


def test_enumeration_stays_in_the_packed_domain(monkeypatch):
    # C(33, 4) = 40,920 failure sets are 640 words: at most one BFS per word
    # (one per block today), never one per set
    topology = build_topology("multicluster", size=4)
    assert comb(topology.width, 4) == 40_920
    calls = []
    real = topokernel._packed_reach
    monkeypatch.setattr(topokernel, "_packed_reach", lambda *args: calls.append(1) or real(*args))
    assert 0.0 < enumerate_topology_success(topology, 4) < 1.0
    assert 1 <= len(calls) <= -(-40_920 // 64)


class TestBudget:
    def test_over_budget_is_refused_before_anything_is_allocated(self, monkeypatch):
        topology = k_hub_cluster(16, hubs=3)  # C(51, 25) ~ 2.5e14 failure sets
        # with the guard anywhere but first, one block of this size is a MemoryError
        monkeypatch.setattr(topokernel, "_ENUMERATION_BLOCK", 1 << 62)
        refusal = r"C\(51, 25\) = \d+ failure sets exceeds max_combinations=50000000$"
        with pytest.raises(ValueError, match=refusal):  # the default: 50 M sets, ~half a minute
            enumerate_topology_success(topology, 25)
        with pytest.raises(ValueError, match="exceeds max_combinations=1364"):
            enumerate_topology_success(TestBlockBoundaries.TOPOLOGY, 4, max_combinations=1364)

    def test_budget_is_inclusive(self):
        topology = TestBlockBoundaries.TOPOLOGY
        assert enumerate_topology_success(
            topology, 4, max_combinations=1365
        ) == enumerate_topology_success(topology, 4)

    def test_f_is_validated_first(self):
        with pytest.raises(ValueError, match="15 failable components, got 16"):
            enumerate_topology_success(TestBlockBoundaries.TOPOLOGY, 16)


class TestOverlayInReduce:
    """``topologysweep``'s reduce decides enumerability itself and hides no error."""

    KWARGS = dict(topologies=("dual-hub", "fattree2"), sizes=(4, 6), f_values=(1, 2, 3))

    @pytest.fixture(scope="class")
    def values(self):
        from repro.engine import SerialExecutor

        plan = topologysweep.build_plan(mc_iterations=200, **self.KWARGS)
        return SerialExecutor().run(plan).values

    def reduce(self, values):
        return topologysweep.build_plan(mc_iterations=200, **self.KWARGS).reduce(values)

    def test_a_value_error_from_the_oracle_propagates(self, values, monkeypatch):
        # reduce used to read *every* ValueError as "too large to enumerate"
        # and silently drop the row: a mis-built topology looked like a big one
        def boom(topology, f, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(topologysweep, "exact_topology_success", boom)
        with pytest.raises(ValueError, match="boom"):
            self.reduce(values)

    def test_only_cells_over_the_budget_are_skipped(self, values, monkeypatch):
        monkeypatch.setattr(topologysweep, "EXACT_BUDGET", 100)
        cells = {tuple(row[:3]) for row in self.reduce(values).tables["exact_check"].rows}
        closed_form = {("dual-hub", size, f) for size in (4, 6) for f in (1, 2, 3)}
        # fattree2 widths 10 and 12: C(10, 3) = 120 and C(12, 3) = 220 exceed 100
        enumerated = {("fattree2", size, f) for size in (4, 6) for f in (1, 2)}
        assert cells == closed_form | enumerated

    def test_each_topology_is_built_once_per_reduce(self, values, monkeypatch):
        built = []

        def counting(spec, size):
            built.append((spec, size))
            return build_topology(spec, size=size)

        monkeypatch.setattr(topologysweep, "build_topology", counting)
        self.reduce(values)
        assert sorted(built) == [(s, n) for s in sorted(self.KWARGS["topologies"]) for n in (4, 6)]
