"""Whole-cluster survivability: every pair must stay connected.

Equation 1 is pairwise.  The natural strengthening — the *cluster* survives
iff every pair of servers can still communicate — matters for workloads
(like the voice-mail system) where any server may need any other.  Under
DRS reachability the communication graph is the union of two cliques (one
per surviving network), which yields a clean closed form:

With both hubs up, all-pairs connectivity holds iff no node lost both NICs
("cover") and either some node kept both NICs (bridging the cliques) or one
network kept every node.  Counting failure sets of f NICs:

* ``f < n``: cover sets are exactly "one NIC per f distinct nodes"
  (``C(n,f)·2^f``), and any untouched node bridges — all good.
* ``f = n``: cover forces one NIC per node and no bridge remains, so only
  the two all-on-one-network sets keep a full clique — 2 good sets.
* ``f > n``: cover is impossible — 0.

With exactly one hub down (2 ways), the surviving network must be complete:
the remaining ``f-1`` failures must all land on the dead network's NICs —
``C(n, f-1)`` sets.  Both hubs down kills everything.  Hence::

    G_all(n, f) = [f < n] C(n,f) 2^f  +  [f = n] 2  +  2 C(n, f-1)
    P_all(n, f) = G_all(n, f) / C(2n+2, f)

Validated against exhaustive enumeration in the test suite.

The Monte Carlo estimate is the sweep loop's one-cell topology grid::

    simulate_topology_grid(dual_hub_cluster(n), (f,), iterations, rng,
                           predicate=AllTerminalsConnected())[f]

:func:`allpairs_connected_vec` is the hand-derived reference predicate the
tests compare it (and the closed form) against.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.combinatorics import comb0
from repro.analysis.exact import _validate


def allpairs_good_combinations(n: int, f: int) -> int:
    """Failure sets of size ``f`` keeping *every* pair connected."""
    _validate(n, f)
    if f < n:
        hubs_up = comb0(n, f) * 2**f
    elif f == n:
        hubs_up = 2
    else:
        hubs_up = 0
    one_hub = 2 * comb0(n, f - 1)
    return hubs_up + one_hub


def allpairs_success_probability(n: int, f: int) -> float:
    """P[every pair of the N servers can still communicate]."""
    total = comb0(2 * n + 2, f)
    if total == 0:
        raise ValueError(f"no failure sets of size {f} exist for N={n}")
    return allpairs_good_combinations(n, f) / total


def allpairs_success_curve(f: int, n_max: int = 63, n_min: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs survivability versus N for fixed ``f``.

    For fixed f this still converges to 1 (a bounded number of failures
    spreads over ever more nodes), but strictly below the pairwise curve
    and much more slowly — e.g. P_all(20, 4) ≈ 0.71 where Equation 1 gives
    0.95.  The regime where the two models *diverge qualitatively* is iid
    component failures (failure count growing with N): see
    :func:`repro.analysis.availability.iid_allpairs_success_probability`,
    where all-pairs availability eventually *decays* with cluster size.
    """
    if n_min is None:
        n_min = max(2, f + 1)
    if n_min > n_max:
        raise ValueError(f"empty N range [{n_min}, {n_max}]")
    ns = np.arange(n_min, n_max + 1)
    ps = np.array([allpairs_success_probability(int(n), f) for n in ns])
    return ns, ps


def allpairs_connected_vec(failed: np.ndarray) -> np.ndarray:
    """Vectorized all-pairs predicate over a failure matrix.

    ``failed`` is the boolean matrix from
    :func:`repro.analysis.montecarlo.sample_failure_matrix`.
    """
    hub0_up = ~failed[:, 0:1]
    hub1_up = ~failed[:, 1:2]
    up0 = ~failed[:, 2::2] & hub0_up   # node i reachable on network 0
    up1 = ~failed[:, 3::2] & hub1_up
    cover = (up0 | up1).all(axis=1)
    bridge = (up0 & up1).any(axis=1)
    full0 = up0.all(axis=1)
    full1 = up1.all(axis=1)
    return cover & (bridge | full0 | full1)
