"""The Dynamic Routing System (DRS): proactive failover for server clusters.

This package implements the protocol the paper evaluates — the system MCI
WorldCom deployed across 27 voice-mail clusters.  Per the paper, every node
runs a daemon with a two-stage loop:

1. **Monitor** (:mod:`~repro.drs.monitor`): continuously ICMP-echo every
   configured peer on every physical network, paced so probe traffic stays
   inside a configured fraction of the segment bandwidth (the proactive cost
   of Figure 1).  Consecutive probe losses mark a link DOWN.
2. **Repair** (:mod:`~repro.drs.failover`): when the link carrying a peer's
   active route dies, switch to the second direct link if it is healthy;
   otherwise broadcast a route-discovery request so that some other server
   with verified connectivity to both endpoints volunteers as a two-hop
   router.  Repair routes are withdrawn when the direct link heals.

Routing loops are avoided by construction: a repair route is only ever
installed through an intermediate whose *direct* link to the target was
verified by its own monitor, and the intermediate pins a direct host route
for the target leg, so steady-state paths never exceed two hops (packets
also carry a TTL as a backstop).

Entry point: :func:`~repro.drs.daemon.install_drs`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "config": ["DrsConfig"],
        "state": ["LinkState", "LinkKey", "PeerLink", "PeerTable"],
        "messages": [
            "DRS_PORT",
            "DiscoveryRequest",
            "RouteOffer",
            "RouteInstallRequest",
            "InstallAck",
        ],
        "monitor": ["LinkMonitor"],
        "failover": ["FailoverEngine"],
        "daemon": ["DrsDaemon", "install_drs"],
    },
)
