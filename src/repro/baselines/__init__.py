"""Baseline routing strategies DRS is compared against.

The paper positions DRS against "traditional routing systems" (RIP, OSPF,
EGP/BGP) whose "general design goal is based on reactively rerouting when a
specified timeout period has been reached."  Three baselines make that
comparison measurable on the same substrate:

* :mod:`~repro.baselines.static_tcp` — **no rerouting at all**: static
  routes, applications survive only what TCP retransmission can mask.
  Lower bound.
* :mod:`~repro.baselines.reactive` — **reactive rerouting**: no background
  probing; a route is only repaired after traffic to the peer has already
  failed for a timeout period (the RIP/IGRP-style design the paper
  contrasts with).  Uses the same dual-NIC failover mechanics as DRS, so
  the measured difference isolates *proactive vs reactive detection*.
* :mod:`~repro.baselines.distvector` — a **RIP-like distance-vector
  protocol** with periodic advertisements and route timeouts, for the
  fully-traditional comparison point.
* :mod:`~repro.baselines.linkstate` — an **OSPF-like link-state protocol**
  (hellos, sequence-numbered LSA flooding, SPF over the broadcast-segment
  pseudo-node graph); reactive with dead-interval detection.
"""

from repro.baselines.reactive import ReactiveConfig, ReactiveRouter, install_reactive
from repro.baselines.distvector import DistVectorConfig, DistVectorRouter, install_distvector
from repro.baselines.linkstate import LinkStateConfig, LinkStateRouter, install_linkstate
from repro.baselines.static_tcp import StaticOnlyDeployment, install_static_only
from repro.drs import DrsConfig, install_drs

#: every routing regime the comparisons run, in report order: kind ->
#: (config class, or None for the regime that takes none; install function).
#: The scenario spec's ``protocol.kind`` and ``experiments.failover`` read this.
ROUTING_PROTOCOLS = {
    "drs": (DrsConfig, install_drs),
    "reactive": (ReactiveConfig, install_reactive),
    "distvector": (DistVectorConfig, install_distvector),
    "linkstate": (LinkStateConfig, install_linkstate),
    "static": (None, install_static_only),
}

__all__ = [
    "ROUTING_PROTOCOLS",
    "ReactiveRouter",
    "ReactiveConfig",
    "install_reactive",
    "DistVectorRouter",
    "DistVectorConfig",
    "install_distvector",
    "LinkStateRouter",
    "LinkStateConfig",
    "install_linkstate",
    "StaticOnlyDeployment",
    "install_static_only",
]
