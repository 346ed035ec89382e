"""Builder catalog: the shipped topology families.

Every builder returns a :class:`~repro.topology.model.Topology` whose
failure-site order is canonical and documented (it is part of the CRN
reproducibility contract), scaled by one primary ``size`` parameter so the
``topologysweep`` experiment can sweep any family over a size grid:

* :func:`dual_hub_cluster` — the paper's 2-backplane/2-NIC cluster, with
  the Equation 1 closed form and the hand-derived vectorized kernels
  attached as fast paths.  Size = N (nodes).
* :func:`k_hub_cluster` — the generalized k-backplane/k-NIC cluster
  (``hubs=2`` reproduces the paper's graph *without* the fast paths, which
  is what the equivalence tests lean on).
  Size = N (nodes).
* :func:`fat_tree_two_level` — a leaf/spine fabric with per-host NICs
  (Couto et al. / Gliksberg et al. in PAPERS.md motivate the family).
  Size = hosts.
* :func:`fat_tree_three_level` — a pod-structured leaf/agg/core fabric;
  the default pair predicate spans pods so core survivability matters.
  Size = hosts.
* :func:`multi_cluster_wan` — dual-hub clusters joined by fragile WAN
  routers in a ring; the default pair crosses clusters.  Size = nodes per
  cluster.

``build_topology`` parses CLI-friendly spec strings
(``"khub"``, ``"khub:hubs=3"``, ``"fattree2:spines=4"``) against
:data:`TOPOLOGY_FAMILIES`, which is also what ``repro run
--topology`` validates against.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.topology.model import PairConnected, Topology

#: spec-string parameter types accepted by :func:`build_topology`
_INT_PARAMS = frozenset(
    {"hubs", "nics", "leaves", "spines", "pods", "leaves_per_pod", "aggs_per_pod",
     "cores", "hosts_per_leaf", "clusters"}
)


def dual_hub_cluster(size: int = 8) -> Topology:
    """The paper's cluster: N nodes, 2 hubs, one NIC per node per hub.

    Vertex layout: hubs ``0, 1``; NIC of node ``i`` on network ``j`` at
    ``2 + 2i + j`` (identical to
    :func:`repro.netsim.faults.component_universe` and to every existing
    failure-matrix consumer); node terminals after the NICs.  Failure sites
    are the hubs then the NICs in vertex order — the exact component
    indexing of :func:`repro.analysis.montecarlo.sample_failure_matrix` —
    so failure matrices and rank matrices are interchangeable between the
    specialized and generic kernels.

    Graph connectivity of terminals 0 and 1 on this graph is *provably*
    the DRS "direct or two-hop" predicate: with only two hubs, any longer
    path revisits a hub, and a revisited hub shortcuts to a direct or
    one-intermediate route.  The oracle test checks the equivalence
    exhaustively; the attached fast paths make the generic API dispatch to
    the existing hand-derived kernels (byte-identical streams).
    """
    from repro.analysis import exact
    from repro.analysis.montecarlo import connectivity_levels, pair_connected_vec

    n = size
    if n < 2:
        raise ValueError(f"dual-hub cluster needs size >= 2 nodes, got {n}")
    roles = ["hub", "hub"] + ["nic"] * (2 * n) + ["node"] * n
    node0 = 2 + 2 * n
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(2):
            nic = 2 + 2 * i + j
            edges.append((node0 + i, nic))
            edges.append((nic, j))
    name = f"dual-hub(n={n})"

    def stratified(fs, iterations, rng, batch, control_variate, **sweep: Any):
        # hub-state stratification with closed-form strata (and optionally
        # the endpoint-dead control variate) — docs/model.md §11
        from repro.analysis.variance import _nic_group, _stratified_full_grid

        group = _nic_group(n, rng, fs)
        return _stratified_full_grid(
            [group], iterations, True, batch, control_variate, topology=name, **sweep
        )[n]

    return Topology(
        name=name,
        family="dual-hub",
        roles=tuple(roles),
        edges=tuple(edges),
        failure_sites=tuple(range(2 + 2 * n)),
        terminals=tuple(range(node0, node0 + n)),
        predicate=PairConnected(0, 1),
        meta={"n": n},
        connected_fn=pair_connected_vec,
        levels_fn=connectivity_levels,
        exact_fn=lambda f: exact.success_probability(n, f),
        strata_sites=(0, 1),
        stratified_fn=stratified,
    )


def k_hub_cluster(size: int = 8, hubs: int = 3, nics: int | None = None) -> Topology:
    """Generalized cluster: N nodes, k hubs, one NIC per node per hub.

    ``nics`` (per node) defaults to ``hubs``; NIC ``j`` of a node attaches
    to hub ``j`` (``j < hubs``).  Failure sites: hubs ``0..k-1``, then NIC
    ``hubs + nics*i + j`` — the natural extension of the dual-hub order.
    """
    n = size
    if n < 2:
        raise ValueError(f"k-hub cluster needs size >= 2 nodes, got {n}")
    if hubs < 1:
        raise ValueError(f"need hubs >= 1, got {hubs}")
    nics = hubs if nics is None else nics
    if not 1 <= nics <= hubs:
        raise ValueError(f"nics per node must be in [1, hubs={hubs}], got {nics}")
    roles = ["hub"] * hubs + ["nic"] * (nics * n) + ["node"] * n
    node0 = hubs + nics * n
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(nics):
            nic = hubs + nics * i + j
            edges.append((node0 + i, nic))
            edges.append((nic, j))
    return Topology(
        name=f"khub(n={n},hubs={hubs},nics={nics})",
        family="khub",
        roles=tuple(roles),
        edges=tuple(edges),
        failure_sites=tuple(range(hubs + nics * n)),
        terminals=tuple(range(node0, node0 + n)),
        predicate=PairConnected(0, 1),
        meta={"n": n, "hubs": hubs, "nics": nics},
        strata_sites=tuple(range(hubs)),
    )


def fat_tree_two_level(size: int = 8, leaves: int = 4, spines: int = 2) -> Topology:
    """Two-level leaf/spine fabric with fragile per-host NICs.

    Hosts (terminals) round-robin over the leaves, each through its own
    fragile NIC; every leaf uplinks to every spine.  Failure sites: host
    NICs in host order, then leaves, then spines.  The default pair is
    hosts 0 and 1, which land on *different* leaves, so the spine layer is
    on the success path.
    """
    hosts = size
    if hosts < 2:
        raise ValueError(f"fat tree needs size >= 2 hosts, got {hosts}")
    if leaves < 2 or spines < 1:
        raise ValueError(f"need leaves >= 2 and spines >= 1, got {leaves}/{spines}")
    roles = ["nic"] * hosts + ["leaf"] * leaves + ["spine"] * spines + ["host"] * hosts
    leaf0, spine0, host0 = hosts, hosts + leaves, hosts + leaves + spines
    edges: list[tuple[int, int]] = []
    for h in range(hosts):
        edges.append((host0 + h, h))                 # host -- its NIC
        edges.append((h, leaf0 + h % leaves))        # NIC -- leaf (round-robin)
    for leaf in range(leaves):
        for spine in range(spines):
            edges.append((leaf0 + leaf, spine0 + spine))
    return Topology(
        name=f"fattree2(hosts={hosts},leaves={leaves},spines={spines})",
        family="fattree2",
        roles=tuple(roles),
        edges=tuple(edges),
        failure_sites=tuple(range(hosts + leaves + spines)),
        terminals=tuple(range(host0, host0 + hosts)),
        predicate=PairConnected(0, 1),
        meta={"hosts": hosts, "leaves": leaves, "spines": spines},
        strata_sites=tuple(range(spine0, spine0 + spines)),
    )


def fat_tree_three_level(
    size: int = 8,
    pods: int = 2,
    leaves_per_pod: int = 2,
    aggs_per_pod: int = 2,
    cores: int = 2,
) -> Topology:
    """Three-level fat tree: pods of leaf+agg switches under a core layer.

    Hosts round-robin over all leaves (pod-major), each through a fragile
    NIC; within a pod every leaf connects to every agg; every agg connects
    to every core.  Failure sites: host NICs, then leaves (pod-major),
    aggs, cores.  The default pair is host 0 and the *last* host, which
    live in different pods, so survivability exercises the full
    leaf-agg-core-agg-leaf path.
    """
    hosts = size
    if hosts < 2:
        raise ValueError(f"fat tree needs size >= 2 hosts, got {hosts}")
    if pods < 2 or leaves_per_pod < 1 or aggs_per_pod < 1 or cores < 1:
        raise ValueError(
            f"need pods >= 2 and positive switch counts, got pods={pods}, "
            f"leaves_per_pod={leaves_per_pod}, aggs_per_pod={aggs_per_pod}, cores={cores}"
        )
    leaves = pods * leaves_per_pod
    aggs = pods * aggs_per_pod
    roles = (
        ["nic"] * hosts + ["leaf"] * leaves + ["agg"] * aggs + ["core"] * cores
        + ["host"] * hosts
    )
    leaf0, agg0 = hosts, hosts + leaves
    core0, host0 = hosts + leaves + aggs, hosts + leaves + aggs + cores
    edges: list[tuple[int, int]] = []
    for h in range(hosts):
        edges.append((host0 + h, h))
        edges.append((h, leaf0 + h % leaves))
    for pod in range(pods):
        for leaf in range(leaves_per_pod):
            for agg in range(aggs_per_pod):
                edges.append((leaf0 + pod * leaves_per_pod + leaf, agg0 + pod * aggs_per_pod + agg))
    for agg in range(aggs):
        for core in range(cores):
            edges.append((agg0 + agg, core0 + core))
    # hosts round-robin pod-major over leaves: host 0 sits in pod 0 and host
    # hosts-1 in the last leaf touched, so the default pair crosses pods
    # whenever hosts >= leaves is not required — pick the last host's leaf
    # explicitly to guarantee distinct pods for any hosts >= 2.
    return Topology(
        name=(
            f"fattree3(hosts={hosts},pods={pods},leaves={leaves_per_pod},"
            f"aggs={aggs_per_pod},cores={cores})"
        ),
        family="fattree3",
        roles=tuple(roles),
        edges=tuple(edges),
        failure_sites=tuple(range(hosts + leaves + aggs + cores)),
        terminals=tuple(range(host0, host0 + hosts)),
        predicate=PairConnected(0, min(leaves - 1, hosts - 1)),
        meta={
            "hosts": hosts,
            "pods": pods,
            "leaves_per_pod": leaves_per_pod,
            "aggs_per_pod": aggs_per_pod,
            "cores": cores,
        },
        strata_sites=tuple(range(core0, core0 + cores)),
    )


def multi_cluster_wan(size: int = 4, clusters: int = 3, hubs: int = 2) -> Topology:
    """Dual-hub clusters joined by per-cluster WAN routers in a ring.

    Each cluster is a ``hubs``-backplane cluster of ``size`` nodes; each
    cluster's hubs all attach to one fragile WAN router, and the routers
    form a ring (a chord-free WAN backbone — two router-disjoint paths
    between any cluster pair once ``clusters >= 3``).  Failure sites:
    cluster 0's hubs and NICs, cluster 1's, ..., then the WAN routers.
    The default pair spans clusters 0 and 1, so survivability compounds
    intra-cluster and WAN failures.
    """
    n = size
    if n < 1:
        raise ValueError(f"multi-cluster needs size >= 1 node per cluster, got {n}")
    if clusters < 2:
        raise ValueError(f"need clusters >= 2, got {clusters}")
    if hubs < 1:
        raise ValueError(f"need hubs >= 1, got {hubs}")
    per_cluster = hubs + hubs * n  # hubs then one NIC per node per hub
    roles: list[str] = []
    for _ in range(clusters):
        roles += ["hub"] * hubs + ["nic"] * (hubs * n)
    wan0 = clusters * per_cluster
    roles += ["wan"] * clusters
    node0 = wan0 + clusters
    roles += ["node"] * (clusters * n)
    edges: list[tuple[int, int]] = []
    for c in range(clusters):
        base = c * per_cluster
        for i in range(n):
            for j in range(hubs):
                nic = base + hubs + hubs * i + j
                edges.append((node0 + c * n + i, nic))
                edges.append((nic, base + j))
        for j in range(hubs):
            edges.append((base + j, wan0 + c))
    for c in range(clusters):
        peer = (c + 1) % clusters
        if peer != c and (wan0 + peer, wan0 + c) not in edges:
            edges.append((wan0 + c, wan0 + peer))
    return Topology(
        name=f"multicluster(clusters={clusters},n={n},hubs={hubs})",
        family="multicluster",
        roles=tuple(roles),
        edges=tuple(edges),
        failure_sites=tuple(range(wan0 + clusters)),
        terminals=tuple(range(node0, node0 + clusters * n)),
        predicate=PairConnected(0, n),  # first node of cluster 0 vs of cluster 1
        meta={"n": n, "clusters": clusters, "hubs": hubs},
        strata_sites=tuple(range(wan0, wan0 + clusters)),
    )


#: family name -> size-parameterized builder (the ``--topology`` universe)
TOPOLOGY_FAMILIES: dict[str, Callable[..., Topology]] = {
    "dual-hub": dual_hub_cluster,
    "khub": k_hub_cluster,
    "fattree2": fat_tree_two_level,
    "fattree3": fat_tree_three_level,
    "multicluster": multi_cluster_wan,
}


def topology_catalog() -> list[str]:
    """The family names ``build_topology`` accepts, in listing order."""
    return list(TOPOLOGY_FAMILIES)


def parse_topology_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Split ``"family:key=value,key=value"`` into (family, params).

    Raises ``ValueError`` with the known families for an unknown family or
    a malformed parameter list — the validation behind ``--topology``.
    """
    family, _, raw = spec.partition(":")
    family = family.strip()
    if family not in TOPOLOGY_FAMILIES:
        raise ValueError(
            f"unknown topology family {family!r}; have {', '.join(topology_catalog())}"
        )
    params: dict[str, Any] = {}
    if raw:
        for item in raw.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"malformed topology parameter {item!r} in {spec!r}")
            if key not in _INT_PARAMS and key != "size":
                raise ValueError(
                    f"unknown topology parameter {key!r} in {spec!r}; "
                    f"have size, {', '.join(sorted(_INT_PARAMS))}"
                )
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"topology parameter {key!r} needs an integer, got {value!r}")
    return family, params


def build_topology(spec: str, size: int | None = None) -> Topology:
    """Build one topology from a spec string, optionally overriding size.

    ``size`` (when given) wins over a ``size=`` in the spec — the sweep
    experiments hold the family spec fixed and vary size per grid point.
    """
    family, params = parse_topology_spec(spec)
    if size is not None:
        params["size"] = size
    builder = TOPOLOGY_FAMILIES[family]
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"topology spec {spec!r}: {exc}") from None
