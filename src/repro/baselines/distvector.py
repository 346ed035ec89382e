"""Baseline 2: a RIP-like distance-vector routing protocol.

The fully-traditional comparison point (RFC 1058 mechanics, scaled timers):
every router periodically broadcasts its distance vector on each attached
network; neighbors learn routes at advertised-metric + 1; routes not
refreshed within ``timeout_s`` are invalidated.  Failure recovery therefore
costs up to a full timeout before an alternative (the second backplane, or a
two-hop neighbor path) takes over — the latency DRS's proactive probing is
designed to beat.

Implemented subset: split horizon (a route is not advertised onto the
network it egresses on), infinity metric 16, no triggered updates (the
pessimistic-but-standard configuration; triggered updates are an ablation
flag in the config).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.addresses import NetworkId, NodeId
from repro.netsim.topology import Cluster
from repro.protocols.routing import Deployment, PeriodicRouter, RouteSource, deploy
from repro.protocols.stack import HostStack
from repro.simkit import Counter, Simulator, TraceRecorder

#: Well-known UDP port (RIP's 520).
RIP_PORT = 520

INFINITY_METRIC = 16
ADVERT_HEADER_BYTES = 4
ADVERT_ENTRY_BYTES = 20


@dataclass(frozen=True)
class DistVectorConfig:
    """Timers (classic RIP: 30 s advertise, 180 s timeout)."""

    advertise_interval_s: float = 3.0
    timeout_s: float = 9.0
    triggered_updates: bool = False

    def __post_init__(self) -> None:
        if self.advertise_interval_s <= 0:
            raise ValueError("advertise_interval_s must be positive")
        if self.timeout_s < 2 * self.advertise_interval_s:
            raise ValueError("timeout_s should cover at least two advertise intervals")


@dataclass(frozen=True)
class Advertisement:
    """One distance-vector broadcast: origin and its reachable destinations."""

    origin: NodeId
    entries: tuple[tuple[NodeId, int], ...]  # (destination, metric)

    @property
    def wire_data_bytes(self) -> int:
        """Approximate RIP packet size for accounting."""
        return ADVERT_HEADER_BYTES + ADVERT_ENTRY_BYTES * len(self.entries)


@dataclass
class _Candidate:
    metric: int
    last_heard: float


class DistVectorRouter(PeriodicRouter):
    """One node's RIP-like routing agent."""

    PREFIX = "dv"

    def __init__(
        self,
        sim: Simulator,
        stack: HostStack,
        config: DistVectorConfig,
        trace: TraceRecorder | None = None,
    ) -> None:
        super().__init__(sim, stack, config, trace)
        # (dst, next_hop, network) -> candidate
        self._candidates: dict[tuple[NodeId, NodeId, NetworkId], _Candidate] = {}
        self.adverts_sent = Counter(f"dv{stack.node.node_id}.adverts")
        self.adverts_received = Counter(f"dv{stack.node.node_id}.received")
        stack.udp.bind(RIP_PORT, self._on_advert)

    def _loop(self):
        # Desynchronize routers like real RIP implementations do.
        yield (self.owner * 0.37) % self.config.advertise_interval_s
        while True:
            self._expire_candidates()
            self._recompute_routes()
            self._advertise()
            yield self.config.advertise_interval_s

    # -------------------------------------------------------------- advertise
    def _advertise(self) -> None:
        active = self._best_routes()
        for net in self.stack.node.networks:
            entries: list[tuple[NodeId, int]] = [(self.owner, 0)]
            for dst, (metric, next_hop, egress_net) in active.items():
                if egress_net == net:
                    continue  # split horizon
                entries.append((dst, metric))
            advert = Advertisement(origin=self.owner, entries=tuple(entries))
            if self.stack.udp.broadcast(net, RIP_PORT, data=advert, data_bytes=advert.wire_data_bytes):
                self.adverts_sent.add()

    def _on_advert(self, dgram, src_node: NodeId, arrived_on: NetworkId) -> None:
        advert: Advertisement = dgram.data
        self.adverts_received.add()
        now = self.sim.now
        changed = False
        for dst, metric in advert.entries:
            if dst == self.owner:
                continue
            new_metric = min(metric + 1, INFINITY_METRIC)
            key = (dst, advert.origin, arrived_on)
            prior = self._candidates.get(key)
            self._candidates[key] = _Candidate(metric=new_metric, last_heard=now)
            if prior is None or prior.metric != new_metric:
                changed = True
        if changed and self.config.triggered_updates:
            self._expire_candidates()
            self._recompute_routes()
            self._advertise()

    # ------------------------------------------------------------ route calc
    def _expire_candidates(self) -> None:
        cutoff = self.sim.now - self.config.timeout_s
        stale = [k for k, c in self._candidates.items() if c.last_heard < cutoff]
        for key in stale:
            del self._candidates[key]

    def _best_routes(self) -> dict[NodeId, tuple[int, NodeId, NetworkId]]:
        best: dict[NodeId, tuple[int, NodeId, NetworkId]] = {}
        for (dst, next_hop, net), cand in self._candidates.items():
            if cand.metric >= INFINITY_METRIC:
                continue
            current = best.get(dst)
            # deterministic tie-break: metric, then next_hop id, then network
            key = (cand.metric, next_hop, net)
            if current is None or key < (current[0], current[1], current[2]):
                best[dst] = (cand.metric, next_hop, net)
        return best

    def _recompute_routes(self) -> None:
        # destinations that lost every candidate fall back to whatever is
        # shadowed (static boot route), mirroring RIP garbage collection
        best = {dst: (next_hop, net, metric) for dst, (metric, next_hop, net) in self._best_routes().items()}
        self._set_routes(RouteSource.DISTVECTOR, best, "dv-route-change")


def install_distvector(
    cluster: Cluster, stacks: dict[int, HostStack], config: DistVectorConfig | None = None
) -> Deployment:
    """Install and start a distance-vector router on every node."""
    config = config or DistVectorConfig()
    return deploy(cluster, config, lambda node: DistVectorRouter(cluster.sim, stacks[node], config, cluster.trace))
