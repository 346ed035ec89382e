"""Operator-facing status reports for a DRS deployment.

Renders what a `drsadm status`-style tool would show on a live cluster:
per-daemon link beliefs, active repair routes, probe/control overhead, and
a one-line health verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.drs.state import LinkState
from repro.protocols.routing import Deployment
from repro.viz import render_table


@dataclass(frozen=True)
class DeploymentHealth:
    """Aggregate health of one deployment at a point in time."""

    nodes: int
    links_total: int
    links_up: int
    links_down: int
    links_unknown: int
    active_two_hop_routes: int
    unreachable_peers: int
    total_repairs: int
    total_probe_bytes: float

    @property
    def healthy(self) -> bool:
        """True when every monitored link is believed UP."""
        return self.links_up == self.links_total

    def verdict(self) -> str:
        """One-line summary."""
        if self.healthy:
            return f"HEALTHY: all {self.links_total} links up across {self.nodes} daemons"
        parts = [f"{self.links_down} links down"]
        if self.active_two_hop_routes:
            parts.append(f"{self.active_two_hop_routes} two-hop repairs active")
        if self.unreachable_peers:
            parts.append(f"{self.unreachable_peers} peer relations unreachable")
        return "DEGRADED: " + ", ".join(parts)


def deployment_health(deployment: Deployment) -> DeploymentHealth:
    """Compute aggregate health across all daemons."""
    links_total = links_up = links_down = links_unknown = 0
    two_hop = unreachable = repairs = probe_bytes = 0
    for daemon in deployment.routers.values():
        for link in daemon.table.links():
            links_total += 1
            if link.state is LinkState.UP:
                links_up += 1
            elif link.state is LinkState.DOWN:
                links_down += 1
            elif link.state is LinkState.UNKNOWN:
                links_unknown += 1
        two_hop += len(daemon.failover.repaired_via)
        unreachable += len(daemon.failover.unreachable)
        repairs += int(daemon.failover.repairs.value)
        probe_bytes += daemon.monitor.probe_bytes.value
    return DeploymentHealth(
        nodes=len(deployment.routers),
        links_total=links_total,
        links_up=links_up,
        links_down=links_down,
        links_unknown=links_unknown,
        active_two_hop_routes=two_hop,
        unreachable_peers=unreachable,
        total_repairs=repairs,
        total_probe_bytes=probe_bytes,
    )


def status_report(deployment: Deployment, verbose: bool = False) -> str:
    """Render the deployment status as text.

    ``verbose`` adds the full per-daemon link table; the default shows only
    exceptions (anything not UP) plus the aggregate summary.
    """
    health = deployment_health(deployment)
    parts = [health.verdict()]

    summary_rows = [
        ["daemons", health.nodes],
        ["monitored links", health.links_total],
        ["links up / down / unknown", f"{health.links_up} / {health.links_down} / {health.links_unknown}"],
        ["active two-hop repairs", health.active_two_hop_routes],
        ["repairs performed", health.total_repairs],
        ["probe bytes sent", health.total_probe_bytes],
    ]
    parts.append(render_table(["metric", "value"], summary_rows, title="deployment summary"))

    exception_rows = []
    for node_id, daemon in sorted(deployment.routers.items()):
        for link in daemon.table.links():
            if verbose or link.state is not LinkState.UP:
                exception_rows.append(
                    [
                        node_id,
                        link.peer,
                        link.network,
                        link.state.value,
                        link.consecutive_failures,
                        link.down_since if link.down_since is not None else "-",
                    ]
                )
        for target, router in sorted(daemon.failover.repaired_via.items()):
            exception_rows.append([node_id, target, "-", f"two-hop via {router}", "-", "-"])
    if exception_rows:
        parts.append(
            render_table(
                ["daemon", "peer", "network", "state", "misses", "down since"],
                exception_rows,
                title="link table" if verbose else "exceptions",
            )
        )
    return "\n\n".join(parts)
