"""Non-uniform failure weights: hubs and NICs do not fail equally often.

The paper's model makes all 2N+2 components equiprobable.  The field data
its motivation cites says otherwise (hubs are shared infrastructure with
their own power/backplane failure modes; NICs dominate by count).  This
module re-evaluates survivability when the f failed components are drawn
*without replacement with probability proportional to per-kind weights* —
a weighted version of the conditional model, estimated by Monte Carlo with
the Gumbel top-k trick (fully vectorized, no Python-level loops).

:func:`simulate_weighted_success` is the sweep loop at one cell: the
dual-hub :class:`~repro.topology.model.Topology` with its per-site
``weights`` set, whose keys :mod:`~repro.analysis.topokernel` transforms
with the same Gumbel top-k trick.  :func:`weighted_failure_matrix` is the
reference sampler the tests compare it against.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis.topokernel import simulate_topology_grid
from repro.topology import dual_hub_cluster

#: Per-failure-event weights implied by the failure-log calibration
#: (CATEGORY_WEIGHTS: nic 0.07 over 2N cards vs hub 0.04 over 2 hubs —
#: an individual hub is far more failure-prone than an individual NIC).
def hub_nic_weight_ratio(n: int, nic_share: float = 0.07, hub_share: float = 0.04) -> float:
    """Per-hub weight / per-NIC weight implied by fleet category shares."""
    if n < 1:
        raise ValueError("need n >= 1")
    per_nic = nic_share / (2 * n)
    per_hub = hub_share / 2
    return per_hub / per_nic


def _check_weights(hub_weight: float, nic_weight: float) -> None:
    """Both kind weights positive and finite (``nan <= 0`` is False, so say it both ways)."""
    for name, weight in (("hub_weight", hub_weight), ("nic_weight", nic_weight)):
        if not (weight > 0 and np.isfinite(weight)):
            raise ValueError(f"{name} must be positive and finite, got {weight!r}")


def weighted_failure_matrix(
    n: int,
    f: int,
    iterations: int,
    rng: np.random.Generator,
    hub_weight: float = 1.0,
    nic_weight: float = 1.0,
) -> np.ndarray:
    """Sample exactly-f failures with per-kind weights (Gumbel top-k).

    Each row fails ``f`` distinct components with inclusion bias toward
    higher weights — the weighted analogue of
    :func:`repro.analysis.montecarlo.sample_failure_matrix` (which this
    reduces to when the weights are equal).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    width = 2 * n + 2
    if not 0 <= f <= width:
        raise ValueError(f"f must be in [0, {width}], got {f}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _check_weights(hub_weight, nic_weight)
    log_w = np.empty(width)
    log_w[:2] = np.log(hub_weight)
    log_w[2:] = np.log(nic_weight)
    # Gumbel-max top-k: argmax of log w + Gumbel noise realizes successive
    # weighted sampling without replacement (Plackett-Luce).
    gumbel = -np.log(-np.log(rng.random((iterations, width))))
    keys = log_w[None, :] + gumbel
    failed = np.zeros((iterations, width), dtype=bool)
    if f > 0:
        picks = np.argpartition(-keys, f - 1, axis=1)[:, :f]
        np.put_along_axis(failed, picks, True, axis=1)
    return failed


def simulate_weighted_success(
    n: int,
    f: int,
    iterations: int,
    rng: np.random.Generator,
    hub_weight: float = 1.0,
    nic_weight: float = 1.0,
    batch: int = 200_000,
) -> float:
    """Pair survivability under kind-weighted exactly-f failures.

    One cell of :func:`~repro.analysis.topokernel.simulate_topology_grid`
    over ``dual_hub_cluster(n)`` carrying ``(hub, hub, nic, ...)`` weights:
    the topology's weighted keys order components exactly as
    :func:`weighted_failure_matrix`'s do, and the dual-hub fast path
    reduces them with :func:`~repro.analysis.montecarlo.connectivity_levels`.
    """
    _check_weights(hub_weight, nic_weight)
    weights = (hub_weight,) * 2 + (nic_weight,) * (2 * n)
    return simulate_topology_grid(
        replace(dual_hub_cluster(n), weights=weights), (f,), iterations, rng, batch=batch
    )[f]
