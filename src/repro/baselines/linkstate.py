"""Baseline 3: an OSPF-like link-state protocol.

The paper names OSPF among the traditional systems DRS is positioned
against.  This is a faithful-in-miniature link-state implementation:

* **Hello protocol** — each router broadcasts a hello on every attached
  network each ``hello_interval_s``; an adjacency (neighbor, network) is up
  while hellos keep arriving and dies after ``dead_interval_s`` of silence
  (RFC 2328's router dead interval, scaled).
* **LSAs** — a router originates a sequence-numbered advertisement listing
  the networks on which it currently has live adjacencies; newer-sequence
  LSAs are flooded on all attached networks.
* **SPF** — every LSDB change triggers a shortest-path computation over
  the bipartite router/transit-network graph (broadcast segments modelled
  as pseudo-nodes, as in OSPF); the first hop of each path becomes the
  routing-table entry.

Failure recovery latency is governed by ``dead_interval_s`` — faster than
RIP's timeout for equal hello rates, but still a *reactive* wait-for-silence
design, which is the comparison the paper draws.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.netsim.addresses import NetworkId, NodeId
from repro.netsim.topology import Cluster
from repro.protocols.routing import Deployment, PeriodicRouter, RouteSource, deploy
from repro.protocols.stack import HostStack
from repro.simkit import Counter, Simulator, TraceRecorder

#: Well-known UDP port (OSPF is IP protocol 89; we ride UDP for simplicity).
LINKSTATE_PORT = 89

HELLO_BYTES = 16
LSA_BASE_BYTES = 16
LSA_ENTRY_BYTES = 4


@dataclass(frozen=True)
class LinkStateConfig:
    """Protocol timers (RFC 2328 defaults are 10 s hello / 40 s dead)."""

    hello_interval_s: float = 1.0
    dead_interval_s: float = 4.0
    lsa_refresh_s: float = 30.0

    def __post_init__(self) -> None:
        if self.hello_interval_s <= 0:
            raise ValueError("hello_interval_s must be positive")
        if self.dead_interval_s < 2 * self.hello_interval_s:
            raise ValueError("dead_interval_s should cover at least two hello intervals")
        if self.lsa_refresh_s <= 0:
            raise ValueError("lsa_refresh_s must be positive")


@dataclass(frozen=True)
class Hello:
    """Hello packet: presence on one network."""

    origin: NodeId


@dataclass(frozen=True)
class Lsa:
    """Router LSA: which networks the origin currently has adjacencies on."""

    origin: NodeId
    seq: int
    networks: tuple[NetworkId, ...]

    @property
    def wire_data_bytes(self) -> int:
        """Approximate encoded size for accounting."""
        return LSA_BASE_BYTES + LSA_ENTRY_BYTES * len(self.networks)


@dataclass
class _LsdbEntry:
    lsa: Lsa
    received_at: float


class LinkStateRouter(PeriodicRouter):
    """One node's OSPF-like agent."""

    PREFIX = "ls"

    def __init__(
        self,
        sim: Simulator,
        stack: HostStack,
        config: LinkStateConfig,
        trace: TraceRecorder | None = None,
    ) -> None:
        super().__init__(sim, stack, config, trace)
        # (neighbor, network) -> last hello time
        self._last_hello: dict[tuple[NodeId, NetworkId], float] = {}
        self._lsdb: dict[NodeId, _LsdbEntry] = {}
        self._seq = 0
        self.hellos_sent = Counter(f"ls{stack.node.node_id}.hellos")
        self.lsas_originated = Counter(f"ls{stack.node.node_id}.lsas")
        self.lsas_flooded = Counter(f"ls{stack.node.node_id}.floods")
        self.spf_runs = Counter(f"ls{stack.node.node_id}.spf")
        stack.udp.bind(LINKSTATE_PORT, self._on_packet)

    def _loop(self):
        yield (self.owner * 0.29) % self.config.hello_interval_s
        refresh_due = 0.0
        while True:
            self._send_hellos()
            changed = self._expire_adjacencies()
            if changed or self.sim.now >= refresh_due:
                self._originate_lsa()
                refresh_due = self.sim.now + self.config.lsa_refresh_s
            yield self.config.hello_interval_s

    # -------------------------------------------------------------- adjacency
    def _send_hellos(self) -> None:
        for net in self.stack.node.networks:
            if self.stack.udp.broadcast(net, LINKSTATE_PORT, data=Hello(self.owner), data_bytes=HELLO_BYTES):
                self.hellos_sent.add()

    def _expire_adjacencies(self) -> bool:
        cutoff = self.sim.now - self.config.dead_interval_s
        stale = [key for key, seen in self._last_hello.items() if seen < cutoff]
        for key in stale:
            del self._last_hello[key]
            if self.trace is not None:
                self.trace.record("ls-adjacency-down", node=self.owner, neighbor=key[0], network=key[1])
        return bool(stale)

    def _live_networks(self) -> tuple[NetworkId, ...]:
        return tuple(sorted({net for (_, net) in self._last_hello}))

    # ------------------------------------------------------------------- lsa
    def _originate_lsa(self) -> None:
        self._seq += 1
        lsa = Lsa(origin=self.owner, seq=self._seq, networks=self._live_networks())
        self.lsas_originated.add()
        self._install_lsa(lsa)
        self._flood(lsa)

    def _flood(self, lsa: Lsa) -> None:
        for net in self.stack.node.networks:
            if self.stack.udp.broadcast(net, LINKSTATE_PORT, data=lsa, data_bytes=lsa.wire_data_bytes):
                self.lsas_flooded.add()

    def _install_lsa(self, lsa: Lsa) -> bool:
        current = self._lsdb.get(lsa.origin)
        if current is not None and current.lsa.seq >= lsa.seq:
            return False
        self._lsdb[lsa.origin] = _LsdbEntry(lsa=lsa, received_at=self.sim.now)
        self._run_spf()
        return True

    # ---------------------------------------------------------------- receive
    def _on_packet(self, dgram, src_node: NodeId, arrived_on: NetworkId) -> None:
        msg = dgram.data
        if isinstance(msg, Hello):
            if msg.origin == self.owner:
                return
            key = (msg.origin, arrived_on)
            new_adjacency = key not in self._last_hello
            self._last_hello[key] = self.sim.now
            if new_adjacency:
                self._originate_lsa()
        elif isinstance(msg, Lsa) and msg.origin != self.owner:
            if self._install_lsa(msg):
                self._flood(msg)  # flood newer LSAs onward

    # ------------------------------------------------------------------- spf
    def _run_spf(self) -> None:
        """Dijkstra over the router/network bipartite graph; install routes."""
        self.spf_runs.add()
        my_nets = self._live_networks()
        # graph edges: router <-> network pseudo-node, unit cost each way
        dist: dict[tuple[str, int], float] = {}
        first_hop: dict[tuple[str, int], tuple[NodeId, NetworkId] | None] = {}
        start = ("router", self.owner)
        heap: list[tuple[float, int, tuple[str, int], tuple[NodeId, NetworkId] | None]] = []
        counter = 0
        heapq.heappush(heap, (0.0, counter, start, None))
        attachments: dict[NodeId, tuple[NetworkId, ...]] = {
            origin: entry.lsa.networks for origin, entry in self._lsdb.items()
        }
        attachments[self.owner] = my_nets
        # which routers sit on each network
        on_network: dict[NetworkId, list[NodeId]] = {}
        for router, nets in attachments.items():
            for net in nets:
                on_network.setdefault(net, []).append(router)
        while heap:
            d, _, vertex, hop = heapq.heappop(heap)
            if vertex in dist:
                continue
            dist[vertex] = d
            first_hop[vertex] = hop
            kind, ident = vertex
            if kind == "router":
                for net in attachments.get(ident, ()):
                    nxt = ("net", net)
                    if nxt not in dist:
                        counter += 1
                        heapq.heappush(heap, (d + 1, counter, nxt, hop))
            else:
                for router in sorted(on_network.get(ident, ())):
                    nxt = ("router", router)
                    if nxt not in dist:
                        counter += 1
                        # the first router hop out of the source fixes the route
                        new_hop = hop if hop is not None else (router, ident)
                        heapq.heappush(heap, (d + 1, counter, nxt, new_hop))
        self._install_routes(dist, first_hop)

    def _install_routes(self, dist, first_hop) -> None:
        # link-state routes to routers SPF can no longer reach are withdrawn
        routes = {
            ident: (*hop, int(dist[(kind, ident)]))
            for (kind, ident), hop in first_hop.items()
            if kind == "router" and ident != self.owner and hop is not None
        }
        self._set_routes(RouteSource.LINKSTATE, routes, "ls-route-change")


def install_linkstate(
    cluster: Cluster, stacks: dict[int, HostStack], config: LinkStateConfig | None = None
) -> Deployment:
    """Install and start a link-state router on every node."""
    config = config or LinkStateConfig()
    return deploy(cluster, config, lambda node: LinkStateRouter(cluster.sim, stacks[node], config, cluster.trace))
