"""The Topology dataclass: validation, predicates, views, metadata."""

import pytest

from repro.topology import (
    AllTerminalsConnected,
    PairConnected,
    TerminalQuorum,
    Topology,
    dual_hub_cluster,
    reachable_from,
)

# a 4-vertex path: t0 -- a -- b -- t1, where only a and b can fail
PATH = Topology(
    name="path4",
    family="test",
    roles=("node", "relay", "relay", "node"),
    edges=((0, 1), (1, 2), (2, 3)),
    failure_sites=(1, 2),
    terminals=(0, 3),
)


class TestValidation:
    def test_minimal_valid_topology_builds(self):
        assert PATH.width == 2
        assert PATH.num_vertices == 4

    def test_rejects_out_of_range_edges_and_self_loops(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology("bad", "t", ("a", "b"), ((0, 5),), (0,), (1,))
        with pytest.raises(ValueError, match="self-loop"):
            Topology("bad", "t", ("a", "b"), ((1, 1),), (0,), (1,))

    def test_rejects_duplicate_failure_sites(self):
        with pytest.raises(ValueError, match="unique"):
            Topology("bad", "t", ("a", "b", "c"), ((0, 1),), (0, 0), (1,))

    def test_terminals_must_be_immortal(self):
        with pytest.raises(ValueError, match="immortal"):
            Topology("bad", "t", ("a", "b"), ((0, 1),), (0, 1), (1,))

    def test_weights_must_match_sites_and_be_positive(self):
        with pytest.raises(ValueError, match="weights length"):
            Topology("bad", "t", ("a", "b", "c"), ((0, 1), (1, 2)), (1,), (0,),
                     weights=(1.0, 2.0))
        with pytest.raises(ValueError, match="positive"):
            Topology("bad", "t", ("a", "b", "c"), ((0, 1), (1, 2)), (1,), (0,),
                     weights=(0.0,))

    def test_validate_f_names_topology_and_component_count(self):
        with pytest.raises(ValueError, match="2 failable components, got 3"):
            PATH.validate_f(3)
        with pytest.raises(ValueError, match="got -1"):
            PATH.validate_f(-1)
        PATH.validate_f(0)
        PATH.validate_f(2)


class TestReachability:
    def test_reference_bfs_walks_the_path(self):
        adjacency = PATH.adjacency_sets()
        assert reachable_from(adjacency, lambda v: True, 0) == {0, 1, 2, 3}
        assert reachable_from(adjacency, lambda v: v != 1, 0) == {0}
        assert reachable_from(adjacency, lambda v: v != 1, 3) == {1 + 1, 3}

    def test_dead_start_reaches_nothing(self):
        assert reachable_from(PATH.adjacency_sets(), lambda v: False, 0) == set()

    def test_neighbor_index_is_symmetric_and_matches_sets(self):
        indptr, indices = PATH.neighbor_index()
        assert indptr[0] == 0 and indptr[-1] == len(indices) == 2 * len(PATH.edges)
        sets = PATH.adjacency_sets()
        for v in range(PATH.num_vertices):
            neighbors = indices[indptr[v] : indptr[v + 1]]
            assert set(neighbors) == set(sets[v])
            assert all(v in sets[u] for u in neighbors)


class TestPredicates:
    def test_pair_connected_breaks_when_the_path_breaks(self):
        assert PATH.connected(())
        assert not PATH.connected((0,))  # failing site 0 = vertex 1 cuts the path
        assert not PATH.connected((1,))

    def test_all_terminals_predicate(self):
        pred = AllTerminalsConnected()
        assert PATH.connected((), pred)
        assert not PATH.connected((0,), pred)

    def test_quorum_requires_a_strict_majority(self):
        topo = dual_hub_cluster(4)
        pred = TerminalQuorum()
        assert pred.required(topo) == 3  # 4 terminals -> strict majority
        assert topo.connected((), pred)
        # both hubs down: every node is isolated, no quorum anywhere
        assert not topo.connected((0, 1), pred)

    def test_quorum_fraction_validation(self):
        with pytest.raises(ValueError, match="quorum fraction"):
            TerminalQuorum(fraction=1.5)

    def test_describe_labels(self):
        assert PairConnected(0, 1).describe() == "pair(0,1)"
        assert TerminalQuorum(0.5).describe() == "quorum(0.5)"
        assert AllTerminalsConnected().describe() == "all-terminals"


class TestMetadata:
    def test_describe_block_is_manifest_ready(self):
        block = dual_hub_cluster(3).describe()
        assert block["family"] == "dual-hub"
        assert block["width"] == 8
        assert block["roles"] == {"hub": 2, "nic": 6}
        assert block["predicate"] == "pair(0,1)"
        assert block["n"] == 3
        assert block["weighted"] is False

    def test_site_index_inverts_failure_sites(self):
        topo = dual_hub_cluster(2)
        index = topo.site_index()
        for pos, site in enumerate(topo.failure_sites):
            assert index[site] == pos
