"""DRS tunables.

The deployment-relevant trade-off lives here: ``sweep_period_s`` (how often
every link is checked) against ``bandwidth_budget`` (how much of the segment
DRS probing may consume).  Figure 1 of the paper is exactly this trade-off;
:func:`DrsConfig.paced_for` derives the sweep period from a budget using the
same calibration as :mod:`repro.analysis.cost`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.netsim.frames import wire_bytes
from repro.protocols.packet import ICMP_HEADER_BYTES, IP_HEADER_BYTES

#: Wire bytes of one echo request (and of its reply): the 84-byte constant.
PROBE_WIRE_BYTES = wire_bytes(IP_HEADER_BYTES + ICMP_HEADER_BYTES)


@dataclass(frozen=True)
class DrsConfig:
    """Configuration for one cluster's DRS daemons.

    Attributes
    ----------
    sweep_period_s:
        Target time to check every monitored link once.  Each link is
        probed once per sweep and DOWN requires ``probe_retries``
        consecutive misses, so worst-case detection latency is roughly
        ``probe_retries * sweep_period_s + probe_timeout_s``.
    probe_timeout_s:
        How long the monitor waits for one echo reply.
    probe_retries:
        Consecutive probe failures required to declare a link DOWN
        (guards against a single lost frame on a healthy link).
    discovery_timeout_s:
        How long the failover engine collects route offers after
        broadcasting a discovery request.
    path_check_period_s:
        While a two-hop repair route is active, the daemon re-validates it
        end-to-end this often (routed ping); a failed check re-triggers
        discovery.
    bandwidth_budget:
        Informational record of the probe budget this config was derived
        from (None when the sweep period was set directly).
    notify_peers:
        Triggered-update extension: the first daemon to declare a link DOWN
        broadcasts a :class:`~repro.drs.messages.LinkDownNotification`, and
        recipients recheck that link immediately instead of waiting for
        their own sweep.  Off by default (the published protocol relies on
        independent detection); ``tests/drs/test_notify.py`` quantifies the gain.
    """

    sweep_period_s: float = 1.0
    probe_timeout_s: float = 0.02
    probe_retries: int = 2
    discovery_timeout_s: float = 0.05
    path_check_period_s: float = 1.0
    bandwidth_budget: float | None = None
    notify_peers: bool = False

    def __post_init__(self) -> None:
        if self.sweep_period_s <= 0:
            raise ValueError("sweep_period_s must be positive")
        if self.probe_timeout_s <= 0:
            raise ValueError("probe_timeout_s must be positive")
        if self.probe_retries < 1:
            raise ValueError("probe_retries must be >= 1")
        if self.discovery_timeout_s <= 0:
            raise ValueError("discovery_timeout_s must be positive")
        if self.path_check_period_s <= 0:  # the path checker's loop waits this long: 0 never advances time
            raise ValueError("path_check_period_s must be positive")

    @staticmethod
    def paced_for(
        n_nodes: int,
        bandwidth_budget: float,
        bandwidth_bps: float = 100e6,
        **overrides,
    ) -> "DrsConfig":
        """Derive the sweep period from a probe-bandwidth budget.

        One sweep exchanges an echo request + reply between every ordered
        node pair on each network: ``n(n-1)`` transactions of
        ``2 * PROBE_WIRE_BYTES`` per segment.  Budgeting a fraction ``rho``
        of the segment gives ``sweep = n(n-1) * 2 * probe_bits / (rho * bw)``
        — the Figure-1 response-time model.
        """
        if not 0 < bandwidth_budget <= 1:
            raise ValueError(f"bandwidth_budget must be in (0, 1], got {bandwidth_budget}")
        if n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        probe_bits = 2 * PROBE_WIRE_BYTES * 8
        sweep = n_nodes * (n_nodes - 1) * probe_bits / (bandwidth_budget * bandwidth_bps)
        cfg = DrsConfig(sweep_period_s=sweep, bandwidth_budget=bandwidth_budget)
        return replace(cfg, **overrides) if overrides else cfg

    @staticmethod
    def for_deployment(
        n_nodes: int,
        detection_target_s: float,
        budget_cap: float = 0.15,
        bandwidth_bps: float = 100e6,
        probe_retries: int = 2,
        probe_timeout_s: float = 0.02,
    ) -> "DrsConfig":
        """Solve for a config meeting a detection-latency target under a budget.

        Inverts the Figure-1 trade-off: the target fixes the sweep period
        (``(target - timeout) / retries``), which fixes the probe bandwidth;
        if that exceeds ``budget_cap`` (the paper allows up to 15%), the
        deployment is infeasible at this cluster size and a ``ValueError``
        explains by how much.
        """
        if detection_target_s <= probe_retries * probe_timeout_s:
            raise ValueError(
                f"detection target {detection_target_s}s is below the floor "
                f"{probe_retries * probe_timeout_s}s set by probe timeouts alone"
            )
        if not 0 < budget_cap <= 1:
            raise ValueError(f"budget_cap must be in (0, 1], got {budget_cap}")
        sweep = (detection_target_s - probe_timeout_s) / probe_retries
        probe_bits = 2 * PROBE_WIRE_BYTES * 8
        required_budget = n_nodes * (n_nodes - 1) * probe_bits / (sweep * bandwidth_bps)
        if required_budget > budget_cap:
            raise ValueError(
                f"infeasible: detecting within {detection_target_s}s on {n_nodes} nodes "
                f"needs {required_budget:.1%} of bandwidth (cap {budget_cap:.0%}); "
                f"shrink the cluster, relax the target, or raise the cap"
            )
        return DrsConfig(
            sweep_period_s=sweep,
            probe_timeout_s=probe_timeout_s,
            probe_retries=probe_retries,
            bandwidth_budget=required_budget,
        )

    def detection_bound_s(self) -> float:
        """Worst-case time from failure to DOWN declaration.

        A failure just after a link's probe waits almost a full sweep for
        the next probe, and each of the ``probe_retries`` confirming misses
        is one sweep apart; the last miss is declared after its timeout.
        """
        return self.probe_retries * self.sweep_period_s + self.probe_timeout_s
