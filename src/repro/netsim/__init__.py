"""Network substrate: the physical model of a dual-backplane server cluster.

This package models the exact topology the DRS paper evaluates: N servers,
each with two NICs, attached to two separate, non-meshed backplanes (hubs).
It provides

* :class:`~repro.netsim.segment.Segment` — what every fabric is: one
  failable segment that NICs attach to and that accounts, once, every bit
  carried, every frame dropped and each frame's wait to get on,
* :class:`~repro.netsim.backplane.Backplane` — the segment as a shared-medium
  hub with FIFO serialization and a random-loss model (the 100 Mb/s network
  of Figure 1); :class:`~repro.netsim.switch.Switch` — the same segment as a
  learning store-and-forward switch with per-port links,
* :class:`~repro.netsim.nic.Nic` — a failable network interface,
* :class:`~repro.netsim.node.Node` — a server chassis holding NICs and
  dispatching received frames to registered handlers (the protocol stack
  from :mod:`repro.protocols` registers itself here),
* :class:`~repro.netsim.faults.FaultInjector` — scripted and random failure
  scenarios over the component universe the paper's probability model
  counts (2N NICs + 2 hubs),
* :func:`~repro.netsim.topology.build_dual_backplane_cluster` — the
  canonical topology builder (``build_dual_switched_cluster`` is the same
  builder handed switches).

Frame sizes follow minimal-Ethernet framing so that an ICMP echo occupies 84
bytes on the wire per direction — the calibration that reproduces Figure 1's
"90 hosts in under a second at 10% bandwidth" checkpoint (see DESIGN.md §2).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "addresses": ["NodeId", "NetworkId", "InterfaceAddr", "BROADCAST_NODE"],
        "frames": [
            "Frame",
            "wire_bytes",
            "ETHER_OVERHEAD_BYTES",
            "MIN_FRAME_BYTES",
            "PREAMBLE_IFG_BYTES",
        ],
        "component": ["Component", "ComponentKind"],
        "segment": ["Segment"],
        "backplane": ["Backplane"],
        "nic": ["Nic"],
        "node": ["Node"],
        "faults": ["FaultInjector", "FaultScenario", "component_universe"],
        "topology": ["Cluster", "build_dual_backplane_cluster"],
        "switch": ["Switch", "build_dual_switched_cluster"],
    },
)
