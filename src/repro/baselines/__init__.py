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

The table of every routing regime, DRS included, is
:data:`repro.scenario.spec.ROUTING_PROTOCOLS`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "reactive": ["ReactiveRouter", "ReactiveConfig", "install_reactive"],
        "distvector": ["DistVectorRouter", "DistVectorConfig", "install_distvector"],
        "linkstate": ["LinkStateRouter", "LinkStateConfig", "install_linkstate"],
        "static_tcp": ["install_static_only"],
    },
)
