"""Brute-force enumeration of the survivability model.

Exponentially expensive (``C(2N+2, f)`` predicate evaluations) but
assumption-free: the predicate below is a direct transcription of the DRS
reachability rules.  The test suite uses it to prove the closed form exact;
the ablations use its switches to quantify the value of the second
backplane and of two-hop routing.

Component indexing matches :func:`repro.netsim.faults.component_universe`:
index 0/1 = hubs, index ``2 + 2i + j`` = node ``i``'s NIC on network ``j``.
"""

from __future__ import annotations

from itertools import combinations

from repro.analysis.exact import _validate


def pair_connected(
    failed: frozenset[int] | set[int],
    n: int,
    a: int = 0,
    b: int = 1,
    two_hop: bool = True,
    networks: int = 2,
) -> bool:
    """Can nodes ``a`` and ``b`` communicate under DRS reachability rules?

    Parameters
    ----------
    failed:
        Indices of failed components (canonical universe ordering).
    n:
        Cluster size.
    a, b:
        The endpoint pair (defaults: the canonical fixed pair).
    two_hop:
        If False, only direct links count (ablation: DRS without the
        broadcast route-discovery stage).
    networks:
        2 for the paper's dual backplane; 1 ablates the redundant network
        (only components of network 0 exist, so indices for network 1 are
        treated as permanently failed).
    """
    if a == b:
        raise ValueError("pair endpoints must differ")

    def hub_up(j: int) -> bool:
        return j < networks and j not in failed

    def nic_up(i: int, j: int) -> bool:
        return j < networks and (2 + 2 * i + j) not in failed

    # Direct on either network.
    for j in range(networks):
        if hub_up(j) and nic_up(a, j) and nic_up(b, j):
            return True
    if not two_hop:
        return False
    # Two-hop via an intermediate: A -net j-> C -net k-> B with j != k.
    for c in range(n):
        if c in (a, b):
            continue
        for j in range(networks):
            for k in range(networks):
                if j == k:
                    continue
                if (
                    hub_up(j) and hub_up(k)
                    and nic_up(a, j) and nic_up(c, j)
                    and nic_up(c, k) and nic_up(b, k)
                ):
                    return True
    return False


def enumerate_success_probability(
    n: int,
    f: int,
    two_hop: bool = True,
    networks: int = 2,
    all_pairs: bool = False,
) -> float:
    """Exact P[Success] by enumerating every ``C(2N+2, f)`` failure set.

    With ``all_pairs=True`` the success event strengthens to "every pair of
    nodes can still communicate" — the whole-cluster survivability variant
    (an extension experiment; the paper's Equation 1 is the pairwise form).
    """
    _validate(n, f)
    universe = range(2 * n + 2)
    good = 0
    total = 0
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)] if all_pairs else [(0, 1)]
    for failure_set in combinations(universe, f):
        failed = frozenset(failure_set)
        total += 1
        if all(pair_connected(failed, n, a, b, two_hop=two_hop, networks=networks) for a, b in pairs):
            good += 1
    return good / total
