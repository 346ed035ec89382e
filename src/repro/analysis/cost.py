"""Figure 1: the proactive cost of DRS monitoring.

The monitor exchanges an ICMP echo (84 wire bytes each way, see
:mod:`repro.netsim.frames`) between every ordered node pair on each network.
Budgeting a fraction ``rho`` of a segment's bandwidth for probes fixes the
fastest full sweep — which is the error-resolution *response time* the
paper plots against cluster size for several budgets:

    T(N, rho) = N (N-1) * 2 * 84 * 8  /  (rho * bandwidth)

The paper's checkpoint "ninety hosts are supported in less than 1 second
with only 10% of the bandwidth usage" lands at T(90, 0.10) ≈ 1.08 s under
this calibration (the sub-second reading matches at 89 hosts; see
EXPERIMENTS.md for the sensitivity discussion).
"""

from __future__ import annotations

import numpy as np

from repro.drs.config import PROBE_WIRE_BYTES


def sweep_time_s(
    n: int | np.ndarray,
    budget: float,
    bandwidth_bps: float = 100e6,
    probe_wire_bytes: int = PROBE_WIRE_BYTES,
) -> float | np.ndarray:
    """Fastest full-sweep (error-resolution) time under a probe budget."""
    if not 0 < budget <= 1:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth_bps must be positive")
    n = np.asarray(n)
    if (n < 2).any():
        raise ValueError("need n >= 2")
    bits = n * (n - 1) * 2 * probe_wire_bytes * 8
    result = bits / (budget * bandwidth_bps)
    return float(result) if result.ndim == 0 else result


def max_nodes_within(
    deadline_s: float,
    budget: float,
    bandwidth_bps: float = 100e6,
    probe_wire_bytes: int = PROBE_WIRE_BYTES,
) -> int:
    """Largest cluster whose sweep fits the deadline (Figure 1 read-off).

    Solves ``N(N-1) <= deadline * budget * bandwidth / (2 * probe_bits)``
    in closed form and floors.
    """
    if deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    if not 0 < budget <= 1:
        raise ValueError(f"budget must be in (0, 1], got {budget}")
    cap = deadline_s * budget * bandwidth_bps / (2 * probe_wire_bytes * 8)
    # N(N-1) <= cap  ->  N <= (1 + sqrt(1 + 4 cap)) / 2
    n = int((1 + np.sqrt(1 + 4 * cap)) / 2)
    return max(n, 1)


def response_time_curve(
    n_values: np.ndarray | list[int],
    budgets: list[float],
    bandwidth_bps: float = 100e6,
) -> dict[float, np.ndarray]:
    """Figure 1's family of curves: response time vs N, one per budget."""
    ns = np.asarray(list(n_values))
    return {budget: sweep_time_s(ns, budget, bandwidth_bps) for budget in budgets}


def frame_size_sensitivity(
    budget: float = 0.10,
    deadline_s: float = 1.0,
    probe_sizes: tuple[int, ...] = (64, 84, 128, 168, 256),
    bandwidth_bps: float = 100e6,
) -> list[tuple[int, int, float]]:
    """How Figure 1's read-offs move with the (unpublished) probe frame size.

    The paper never states its probe's wire size; our calibration (84 B,
    minimal Ethernet) puts 90 hosts at ~1.08 s on a 10% budget.  This sweep
    reports, per candidate wire size: (size, max nodes within the deadline,
    sweep time at N=90) — the uncertainty band a reader should put around
    the absolute seconds in Figure 1.
    """
    rows = []
    for size in probe_sizes:
        rows.append(
            (
                size,
                max_nodes_within(deadline_s, budget, bandwidth_bps, probe_wire_bytes=size),
                float(sweep_time_s(90, budget, bandwidth_bps, probe_wire_bytes=size)),
            )
        )
    return rows
