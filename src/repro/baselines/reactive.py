"""Baseline 1: reactive rerouting — detect by timeout, then repair.

This models the design philosophy the paper contrasts DRS with: "wait for a
failure to occur and then react by finding an alternative route … if a
destination network does not respond to a route query, after some time
quantum, it is considered down and a new route is sought after."

The router issues slow routed *route queries* (not per-link probes) on a
RIP-like cadence.  Only after a peer has failed queries continuously for
``timeout_s`` does repair begin — and repair then probes the redundant link
and, failing that, broadcasts for a volunteer router that performs an
*on-demand* check of its own link to the target (reactive end to end).

The repair mechanics deliberately mirror DRS so that measured differences
isolate the paper's actual claim: proactive detection beats reactive
detection, not "DRS has a better repair path."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.drs.messages import (
    DISCOVERY_REQUEST_BYTES,
    INSTALL_ACK_BYTES,
    INSTALL_REQUEST_BYTES,
    ROUTE_OFFER_BYTES,
    DiscoveryRequest,
    InstallAck,
    RouteInstallRequest,
    RouteOffer,
)
from repro.netsim.addresses import NetworkId, NodeId
from repro.netsim.topology import Cluster
from repro.protocols.icmp import PingResult, PingStatus
from repro.protocols.routing import Deployment, PeriodicRouter, Route, RouteSource, deploy
from repro.protocols.stack import HostStack
from repro.simkit import Counter, Simulator, TraceRecorder

#: Well-known UDP port for the reactive baseline's control plane.
REACTIVE_PORT = 1113

_request_ids = itertools.count(1)


@dataclass(frozen=True)
class ReactiveConfig:
    """Timing of the reactive baseline (classic RIP is 30 s / 180 s)."""

    query_interval_s: float = 3.0
    timeout_s: float = 9.0
    probe_timeout_s: float = 0.02
    discovery_timeout_s: float = 0.05

    def __post_init__(self) -> None:
        if self.query_interval_s <= 0:
            raise ValueError("query_interval_s must be positive")
        if self.timeout_s < self.query_interval_s:
            raise ValueError("timeout_s must be >= query_interval_s")


@dataclass
class _Repair:
    target: NodeId
    detected_at: float
    request_id: int = -1
    direct_results: dict[NetworkId, bool] = field(default_factory=dict)
    offers: list[RouteOffer] = field(default_factory=list)
    settled: bool = False


class ReactiveRouter(PeriodicRouter):
    """One node's reactive routing agent."""

    PREFIX = "reactive"

    def __init__(
        self,
        sim: Simulator,
        stack: HostStack,
        peers: list[NodeId],
        config: ReactiveConfig,
        trace: TraceRecorder | None = None,
    ) -> None:
        super().__init__(sim, stack, config, trace)
        self.peers = [p for p in peers if p != stack.node.node_id]
        self._failing_since: dict[NodeId, float] = {}
        self._repairs_active: dict[NodeId, _Repair] = {}
        self.repairs = Counter(f"reactive{stack.node.node_id}.repairs")
        self.queries = Counter(f"reactive{stack.node.node_id}.queries")
        self.failed_repairs = Counter(f"reactive{stack.node.node_id}.failed_repairs")
        stack.udp.bind(REACTIVE_PORT, self._on_control)

    def _loop(self):
        if not self.peers:
            return
        gap = self.config.query_interval_s / len(self.peers)
        yield (self.owner * gap) % self.config.query_interval_s
        while True:
            for peer in self.peers:
                self._query(peer)
                yield gap

    # ------------------------------------------------------------------ query
    def _query(self, peer: NodeId) -> None:
        self.queries.add()
        self.stack.icmp.ping(peer, timeout_s=self.config.probe_timeout_s, callback=self._on_query_result)

    def _on_query_result(self, result: PingResult) -> None:
        peer = result.dst_node
        if result.status is PingStatus.REPLY:
            self._failing_since.pop(peer, None)
            return
        first = self._failing_since.setdefault(peer, self.sim.now)
        if self.sim.now - first >= self.config.timeout_s and peer not in self._repairs_active:
            # Timeout quantum reached: the peer is considered down; react.
            if self.trace is not None:
                self.trace.record("reactive-detect", node=self.owner, peer=peer, failing_since=first)
            self._start_repair(peer, detected_at=first)

    # ----------------------------------------------------------------- repair
    def _start_repair(self, target: NodeId, detected_at: float) -> None:
        repair = _Repair(target=target, detected_at=detected_at)
        self._repairs_active[target] = repair
        # Check both direct links; install the first that answers.
        for net in self.stack.node.networks:
            self.stack.icmp.ping_direct(
                net,
                target,
                timeout_s=self.config.probe_timeout_s,
                callback=lambda res, r=repair: self._on_direct_check(r, res),
            )

    def _on_direct_check(self, repair: _Repair, result: PingResult) -> None:
        if repair.settled:
            return
        network = result.network
        ok = result.status is PingStatus.REPLY
        repair.direct_results[network] = ok
        if ok:
            self._install_direct(repair, network)
            return
        if len(repair.direct_results) == len(self.stack.node.networks):
            self._start_discovery(repair)

    def _install_direct(self, repair: _Repair, network: NetworkId) -> None:
        repair.settled = True
        self._repairs_active.pop(repair.target, None)
        self._failing_since.pop(repair.target, None)
        self.stack.table.install(
            Route(
                dst=repair.target,
                network=network,
                next_hop=repair.target,
                source=RouteSource.REACTIVE,
                installed_at=self.sim.now,
            )
        )
        self.repairs.add()
        if self.trace is not None:
            self.trace.record(
                "reactive-repair",
                node=self.owner,
                peer=repair.target,
                kind="direct-swap",
                network=network,
                detected_at=repair.detected_at,
                repair_latency=self.sim.now - repair.detected_at,
            )

    # -------------------------------------------------------------- discovery
    def _start_discovery(self, repair: _Repair) -> None:
        repair.request_id = next(_request_ids)
        request = DiscoveryRequest(origin=self.owner, target=repair.target, request_id=repair.request_id)
        sent_any = False
        for net in self.stack.node.networks:
            if self.stack.udp.broadcast(net, REACTIVE_PORT, data=request, data_bytes=DISCOVERY_REQUEST_BYTES):
                sent_any = True
        if not sent_any:
            self._settle_failure(repair)
            return
        self.sim.schedule(self.config.discovery_timeout_s, lambda: self._on_discovery_timeout(repair))

    def _on_discovery_timeout(self, repair: _Repair) -> None:
        if repair.settled:
            return
        if repair.offers:
            self._install_via(repair, min(repair.offers, key=lambda o: o.router))
        else:
            self._settle_failure(repair)

    def _settle_failure(self, repair: _Repair) -> None:
        repair.settled = True
        self._repairs_active.pop(repair.target, None)
        # keep the failure clock running: the next query retriggers repair
        self._failing_since.pop(repair.target, None)
        self.failed_repairs.add()
        if self.trace is not None:
            self.trace.record("reactive-unreachable", node=self.owner, peer=repair.target)

    def _install_via(self, repair: _Repair, offer: RouteOffer) -> None:
        repair.settled = True
        self._repairs_active.pop(repair.target, None)
        self._failing_since.pop(repair.target, None)
        request = RouteInstallRequest(
            origin=self.owner, target=repair.target, request_id=offer.request_id, leg2_network=offer.leg2_network
        )
        self.stack.udp.send(offer.router, REACTIVE_PORT, data=request, data_bytes=INSTALL_REQUEST_BYTES)
        leg1 = next((n for n in self.stack.node.networks if n != offer.leg2_network), self.stack.node.networks[0])
        self.stack.table.install(
            Route(
                dst=repair.target,
                network=leg1,
                next_hop=offer.router,
                source=RouteSource.REACTIVE,
                metric=2,
                installed_at=self.sim.now,
            )
        )
        self.repairs.add()
        if self.trace is not None:
            self.trace.record(
                "reactive-repair",
                node=self.owner,
                peer=repair.target,
                kind="two-hop",
                router=offer.router,
                detected_at=repair.detected_at,
                repair_latency=self.sim.now - repair.detected_at,
            )

    # ------------------------------------------------------------ control plane
    def _on_control(self, dgram, src_node: NodeId, arrived_on: NetworkId) -> None:
        msg = dgram.data
        if isinstance(msg, DiscoveryRequest) and msg.origin != self.owner:
            self._answer_discovery(msg, arrived_on)
        elif isinstance(msg, RouteOffer):
            repair = self._repairs_active.get(msg.target)
            if repair is not None and not repair.settled and msg.request_id == repair.request_id:
                repair.offers.append(msg)
                self._install_via(repair, msg)
        elif isinstance(msg, RouteInstallRequest) and msg.target != self.owner:
            self.stack.table.install(
                Route(
                    dst=msg.target,
                    network=msg.leg2_network,
                    next_hop=msg.target,
                    source=RouteSource.REACTIVE,
                    installed_at=self.sim.now,
                )
            )
            self.stack.udp.send(msg.origin, REACTIVE_PORT, data=InstallAck(self.owner, msg.target, msg.request_id), data_bytes=INSTALL_ACK_BYTES)

    def _answer_discovery(self, msg: DiscoveryRequest, arrived_on: NetworkId) -> None:
        if msg.target == self.owner:
            offer = RouteOffer(router=self.owner, target=self.owner, request_id=msg.request_id, leg2_network=arrived_on)
            self.stack.udp.send_direct(arrived_on, msg.origin, REACTIVE_PORT, data=offer, data_bytes=ROUTE_OFFER_BYTES)
            return
        # Reactive volunteer: check our link to the target on demand, then offer.
        for net in self.stack.node.networks:
            if net == arrived_on:
                continue

            def on_check(result: PingResult, net=net) -> None:
                if result.status is PingStatus.REPLY:
                    offer = RouteOffer(router=self.owner, target=msg.target, request_id=msg.request_id, leg2_network=net)
                    self.stack.udp.send_direct(arrived_on, msg.origin, REACTIVE_PORT, data=offer, data_bytes=ROUTE_OFFER_BYTES)

            self.stack.icmp.ping_direct(net, msg.target, timeout_s=self.config.probe_timeout_s, callback=on_check)


def install_reactive(
    cluster: Cluster, stacks: dict[int, HostStack], config: ReactiveConfig | None = None
) -> Deployment:
    """Install and start a reactive router on every node."""
    config = config or ReactiveConfig()
    peers = [node.node_id for node in cluster.nodes]
    return deploy(cluster, config, lambda node: ReactiveRouter(cluster.sim, stacks[node], peers, config, cluster.trace))
