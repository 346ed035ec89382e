"""Baseline 0: static routes, recovery left entirely to TCP retransmission.

This is the configuration a cluster has with no routing daemon at all: one
static route per peer on the primary network.  A NIC or hub failure on that
network is never routed around — transport either outlasts the outage via
retransmission (transient faults) or the connection dies (permanent faults).
"""

from __future__ import annotations

from repro.netsim.topology import Cluster
from repro.protocols.routing import Deployment
from repro.protocols.stack import HostStack


def install_static_only(cluster: Cluster, stacks: dict[int, HostStack], config: None = None) -> Deployment:
    """The do-nothing deployment: no routers run; routes stay as installed at boot."""
    return Deployment(config)
