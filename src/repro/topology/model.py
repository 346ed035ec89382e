"""The topology model: survivability over arbitrary component graphs.

The paper's Equation 1 is a statement about one specific graph — an N-node
cluster with two backplane hubs and one NIC per node per backplane — and
the original estimators hard-wired that graph's success predicate.  This
module factors the graph itself out into a first-class object so the same
estimator machinery (exact enumeration, vectorized Monte Carlo, the
common-random-numbers sweep kernel) runs over *any* topology:

* :class:`Topology` — vertices with typed roles, an undirected edge list,
  the ordered *failure universe* (which vertices can fail, and in which
  canonical order — the order defines the failure-rank semantics of the
  CRN sweep kernel), the *terminal* vertices survivability is asked about,
  and optional per-site failure weights.
* :class:`ConnectivityPredicate` and its shipped variants —
  :class:`PairConnected` (source/sink), :class:`AllTerminalsConnected`
  (whole-cluster), and :class:`TerminalQuorum` (a fraction of terminals
  must remain mutually reachable).  Every shipped predicate is *monotone*:
  failing more components can never turn a disconnected state back into a
  connected one, which is what lets the sweep kernel reduce each sampled
  row to a single breakdown threshold (see docs/topology.md).
* pure-Python reachability (:func:`reachable_from`) — the assumption-free
  reference the exhaustive oracle and the property tests compare the
  vectorized kernels against.

Builders for concrete topology families live in
:mod:`repro.topology.builders`; the vectorized kernels that consume this
model live in :mod:`repro.analysis.topokernel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np


def _as_failed_set(failed: Iterable[int]) -> frozenset[int]:
    return failed if isinstance(failed, frozenset) else frozenset(failed)


def reachable_from(
    adjacency: tuple[frozenset[int], ...], alive: Callable[[int], bool], start: int
) -> set[int]:
    """Vertices reachable from ``start`` through alive vertices (plain BFS).

    The reference implementation of connectivity: no vectorization, no
    assumptions.  ``start`` itself must be alive or the result is empty.
    """
    if not alive(start):
        return set()
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in seen and alive(v):
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class ConnectivityPredicate:
    """What "the topology survived this failure set" means.

    Subclasses implement :meth:`holds` — the pure-Python reference form,
    evaluated on one failure set at a time.  The vectorized batch form
    lives in :mod:`repro.analysis.topokernel` and is tested equivalent.
    Every shipped predicate is monotone non-increasing in the failure set.
    """

    kind = "abstract"

    def holds(self, topology: "Topology", failed: Iterable[int]) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class PairConnected(ConnectivityPredicate):
    """Source/sink survivability: terminals ``a`` and ``b`` stay connected.

    ``a`` and ``b`` index into ``topology.terminals`` (not raw vertex ids),
    mirroring the paper's fixed (A, B) node pair.
    """

    a: int = 0
    b: int = 1
    kind = "pair"

    def holds(self, topology: "Topology", failed: Iterable[int]) -> bool:
        failed = _as_failed_set(failed)
        src = topology.terminals[self.a]
        dst = topology.terminals[self.b]
        reached = reachable_from(topology.adjacency_sets(), lambda v: v not in failed, src)
        return dst in reached

    def describe(self) -> str:
        return f"pair({self.a},{self.b})"


@dataclass(frozen=True)
class AllTerminalsConnected(ConnectivityPredicate):
    """Whole-cluster survivability: every terminal pair stays connected."""

    kind = "all-terminals"

    def holds(self, topology: "Topology", failed: Iterable[int]) -> bool:
        failed = _as_failed_set(failed)
        first = topology.terminals[0]
        reached = reachable_from(topology.adjacency_sets(), lambda v: v not in failed, first)
        return all(t in reached for t in topology.terminals)


@dataclass(frozen=True)
class TerminalQuorum(ConnectivityPredicate):
    """Quorum survivability: one component keeps >= ``fraction`` of terminals.

    The success event of consensus-style workloads: a strict majority (the
    default) of members must remain mutually reachable.  The required count
    is ``floor(fraction * T) + 1`` capped at ``T`` — a strict-majority rule,
    so ``fraction=0.5`` over 4 terminals needs 3.
    """

    fraction: float = 0.5
    kind = "quorum"

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"quorum fraction must be in [0, 1), got {self.fraction}")

    def required(self, topology: "Topology") -> int:
        t = len(topology.terminals)
        return min(t, int(self.fraction * t) + 1)

    def holds(self, topology: "Topology", failed: Iterable[int]) -> bool:
        failed = _as_failed_set(failed)
        adjacency = topology.adjacency_sets()
        need = self.required(topology)
        remaining = set(topology.terminals)
        while remaining and len(remaining) >= need:
            seed = next(iter(remaining))
            reached = reachable_from(adjacency, lambda v: v not in failed, seed)
            members = {t for t in topology.terminals if t in reached}
            if len(members) >= need:
                return True
            remaining -= members or {seed}
        return False

    def describe(self) -> str:
        return f"quorum({self.fraction:g})"


@dataclass(frozen=True)
class Topology:
    """One survivability scenario: a component graph plus failure semantics.

    Vertices are ``0 .. len(roles) - 1``; ``roles[v]`` is a free-form kind
    label (``"hub"``, ``"nic"``, ``"leaf"``, ...).  ``failure_sites`` lists
    the vertices that *can* fail, in canonical order — that order is the
    component indexing of failure matrices and of the CRN rank kernel, so
    it is part of the reproducibility contract.  ``terminals`` are the
    vertices survivability is asked about; they never fail (model hosts as
    immortal endpoints whose NICs are separate, fragile vertices — exactly
    the paper's decomposition).

    ``weights`` (optional, per failure site, positive) bias exactly-f
    sampling toward heavier sites — the non-uniform failure model of
    :mod:`repro.analysis.weighted` generalized to any graph.

    The three ``*_fn`` hooks let a builder attach specialized closed-form
    fast paths that the generic kernels dispatch to when the default
    predicate is in play (the dual-hub builder wires the Equation 1 closed
    form and the hand-derived vectorized predicate/threshold kernels):

    * ``connected_fn(failed_matrix) -> bool vector`` — batch predicate.
    * ``levels_fn(keys_matrix) -> int vector`` — per-row breakdown
      thresholds over any row-wise comparable key matrix.
    * ``exact_fn(f) -> float`` — closed-form P[Success].

    ``strata_sites`` (optional) names the vertices whose joint failure
    state stratifies the sampling — the "hubs" of the family, in the
    dual-hub sense: few, shared, and disproportionately load-bearing.
    Declaring them opts the topology into the stratified estimators
    (``method="stratified"`` on
    :func:`repro.analysis.topokernel.simulate_topology_grid`): trials are
    allocated across the ``len(strata_sites) + 1`` how-many-strata-sites-
    failed strata with exact hypergeometric weights.  ``stratified_fn``
    additionally attaches a family-specialized stratified kernel (the
    dual-hub builder wires the hub-stratified sweep of
    :mod:`repro.analysis.variance`, closed-form strata plus the control
    variate) that ``method="stratified-cv"`` requires.
    """

    name: str
    family: str
    roles: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    failure_sites: tuple[int, ...]
    terminals: tuple[int, ...]
    predicate: ConnectivityPredicate = field(default_factory=PairConnected)
    weights: tuple[float, ...] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    connected_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    levels_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    exact_fn: Callable[[int], float] | None = field(default=None, repr=False, compare=False)
    strata_sites: tuple[int, ...] | None = None
    stratified_fn: Callable[..., Any] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = len(self.roles)
        if v < 2:
            raise ValueError(f"topology {self.name!r} needs at least 2 vertices, got {v}")
        for a, b in self.edges:
            if not (0 <= a < v and 0 <= b < v):
                raise ValueError(f"edge ({a}, {b}) out of range for {v} vertices")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
        if len(set(self.failure_sites)) != len(self.failure_sites):
            raise ValueError("failure_sites must be unique")
        for site in self.failure_sites:
            if not 0 <= site < v:
                raise ValueError(f"failure site {site} out of range for {v} vertices")
        if len(self.terminals) < 1:
            raise ValueError("topology needs at least one terminal")
        for t in self.terminals:
            if not 0 <= t < v:
                raise ValueError(f"terminal {t} out of range for {v} vertices")
        overlap = set(self.terminals) & set(self.failure_sites)
        if overlap:
            raise ValueError(
                f"terminals must be immortal; {sorted(overlap)} appear in failure_sites "
                "(model a fragile endpoint as a separate NIC vertex)"
            )
        if self.weights is not None:
            if len(self.weights) != len(self.failure_sites):
                raise ValueError(
                    f"weights length {len(self.weights)} != "
                    f"{len(self.failure_sites)} failure sites"
                )
            bad = [w for w in self.weights if not (w > 0 and np.isfinite(w))]  # nan <= 0 is False
            if bad:
                raise ValueError(f"failure weights must be positive and finite, got {bad[0]!r}")
        if self.strata_sites is not None:
            if len(self.strata_sites) == 0:
                raise ValueError("strata_sites must name at least one failure site (or be None)")
            if len(set(self.strata_sites)) != len(self.strata_sites):
                raise ValueError("strata_sites must be unique")
            sites = set(self.failure_sites)
            for site in self.strata_sites:
                if site not in sites:
                    raise ValueError(
                        f"stratum site {site} is not a failure site of topology {self.name!r}"
                    )

    # ------------------------------------------------------------------ shape
    @property
    def num_vertices(self) -> int:
        return len(self.roles)

    @property
    def width(self) -> int:
        """Size of the failure universe (the ``2N + 2`` of the paper)."""
        return len(self.failure_sites)

    def validate_f(self, f: int) -> None:
        """The shared f-validation path of every kernel over this topology.

        Matches :func:`repro.analysis.exact.success_probability`'s contract:
        a clear ``ValueError`` when ``f`` is not an integer (a NumPy one will
        do) or exceeds the component count (or is negative) instead of
        silently sampling nonsense.
        """
        if not isinstance(f, (int, np.integer)):
            raise ValueError(f"f must be an integer, got {f!r}")
        if not 0 <= f <= self.width:
            raise ValueError(
                f"f must be in [0, {self.width}]: topology {self.name!r} has "
                f"{self.width} failable components, got {f}"
            )

    # ------------------------------------------------------------------ views
    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets per vertex (reference-path view; cheap to rebuild)."""
        neighbors: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for a, b in self.edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        return tuple(frozenset(s) for s in neighbors)

    def neighbor_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR neighbour index ``(indptr, indices)`` for the batched kernels.

        The neighbours of vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``
        (each undirected edge listed from both ends); a vertex without
        edges owns an empty slice.
        """
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        sources = np.concatenate([ends[:, 0], ends[:, 1]])
        targets = np.concatenate([ends[:, 1], ends[:, 0]])
        indptr = np.zeros(self.num_vertices + 1, dtype=np.intp)
        np.cumsum(np.bincount(sources, minlength=self.num_vertices), out=indptr[1:])
        return indptr, targets[np.argsort(sources, kind="stable")]

    def site_index(self) -> dict[int, int]:
        """Vertex id -> position in the canonical failure-universe order."""
        return {site: i for i, site in enumerate(self.failure_sites)}

    def strata_positions(self) -> tuple[int, ...]:
        """Stratum sites as positions in the canonical failure-universe order.

        Empty when the topology declares no strata; the stratified sweep
        kernel conditions on how many of *these columns* of the failure
        matrix are failed.
        """
        if self.strata_sites is None:
            return ()
        index = self.site_index()
        return tuple(index[site] for site in self.strata_sites)

    def weight_array(self) -> np.ndarray | None:
        """Per-site weights as an array, or None for the uniform model."""
        return None if self.weights is None else np.asarray(self.weights, dtype=float)

    def role_counts(self) -> dict[str, int]:
        """How many failure sites each role contributes (metadata payload)."""
        counts: dict[str, int] = {}
        for site in self.failure_sites:
            counts[self.roles[site]] = counts.get(self.roles[site], 0) + 1
        return counts

    def describe(self) -> dict[str, Any]:
        """Manifest/flight metadata block for this topology."""
        return {
            "name": self.name,
            "family": self.family,
            "vertices": self.num_vertices,
            "edges": len(self.edges),
            "width": self.width,
            "terminals": len(self.terminals),
            "predicate": self.predicate.describe(),
            "roles": self.role_counts(),
            "weighted": self.weights is not None,
            "strata": 0 if self.strata_sites is None else len(self.strata_sites),
            **{k: v for k, v in self.meta.items() if isinstance(v, (int, float, str, bool))},
        }

    # -------------------------------------------------------------- reference
    def connected(self, failed: Iterable[int], predicate: ConnectivityPredicate | None = None) -> bool:
        """Reference evaluation of one failure set (site positions).

        ``failed`` holds positions into ``failure_sites`` (the component
        indexing every kernel shares), not raw vertex ids.
        """
        failed_vertices = frozenset(self.failure_sites[i] for i in failed)
        return (predicate or self.predicate).holds(self, failed_vertices)
