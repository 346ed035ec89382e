"""Pluggable survivability topologies.

The :class:`~repro.topology.model.Topology` dataclass describes a component
graph (typed roles, adjacency, an ordered failure universe, terminal
vertices) plus what "survived" means
(:class:`~repro.topology.model.ConnectivityPredicate`); the builder catalog
in :mod:`~repro.topology.builders` ships the paper's dual-hub cluster and
the generalized families ROADMAP item 2 names.  The vectorized kernels
that estimate survivability over any topology live in
:mod:`repro.analysis.topokernel`; see docs/topology.md.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "model": [
            "Topology",
            "ConnectivityPredicate",
            "PairConnected",
            "AllTerminalsConnected",
            "TerminalQuorum",
            "reachable_from",
        ],
        "builders": [
            "dual_hub_cluster",
            "k_hub_cluster",
            "fat_tree_two_level",
            "fat_tree_three_level",
            "multi_cluster_wan",
            "TOPOLOGY_FAMILIES",
            "topology_catalog",
            "parse_topology_spec",
            "build_topology",
        ],
    },
)
