"""Phase two of the DRS daemon loop: fixing problems as they occur.

The repair policy follows the paper's description exactly:

1. A link DOWN transition only matters if it breaks the *active route* to
   that peer (probes on the idle second network failing do not reroute
   anything, they just update state).
2. If the other direct link to the peer is UP, switch the route to it —
   "when one link fails, the second direct link is checked and used."
3. If no direct link survives, broadcast a discovery request on every
   network whose local NIC still works; volunteers with a verified direct
   link to the target answer; the origin pins a two-hop route through the
   first usable volunteer — "a broadcast is made to identify whether or not
   some other server is able to act as a router."
4. When a direct link to the peer heals, the repair route is withdrawn and
   the direct route restored.

Loop freedom: the only multi-hop routes DRS ever installs are two-hop routes
whose second leg the volunteer verified and pinned as a *direct* host route.
A volunteer never forwards through a third node, so repair paths cannot
compose into cycles; the packet TTL remains as a defence-in-depth backstop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.drs.config import DrsConfig
from repro.drs.messages import (
    DISCOVERY_REQUEST_BYTES,
    DRS_PORT,
    INSTALL_ACK_BYTES,
    INSTALL_REQUEST_BYTES,
    LINK_DOWN_NOTIFICATION_BYTES,
    ROUTE_OFFER_BYTES,
    DiscoveryRequest,
    InstallAck,
    LinkDownNotification,
    RouteInstallRequest,
    RouteOffer,
)
from repro.drs.state import LinkState, PeerLink, PeerTable
from repro.netsim.addresses import NetworkId, NodeId
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, current_registry
from repro.obs.progress import heartbeat
from repro.obs.spans import Span, span_log
from repro.protocols.icmp import PingResult, PingStatus
from repro.protocols.routing import Route, RouteSource
from repro.protocols.stack import HostStack
from repro.simkit import Counter, Simulator, TraceRecorder

_request_ids = itertools.count(1)


@dataclass
class _Discovery:
    """State of one in-flight discovery round."""

    target: NodeId
    request_id: int
    started_at: float
    failure_detected_at: float
    offers: list[RouteOffer] = field(default_factory=list)
    timeout_event: object | None = None
    settled: bool = False
    span: Span | None = None


class FailoverEngine:
    """Repair logic for one daemon."""

    def __init__(
        self,
        sim: Simulator,
        stack: HostStack,
        table: PeerTable,
        config: DrsConfig,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.table = table
        self.config = config
        self.trace = trace
        self._spans = span_log(trace) if trace is not None else None
        #: open detection→repair spans, one per peer being repaired
        self._failover_spans: dict[NodeId, Span] = {}
        self._discoveries: dict[int, _Discovery] = {}
        #: peers currently carried by a two-hop repair route: peer -> router
        self.repaired_via: dict[NodeId, NodeId] = {}
        #: second legs this node pinned as a volunteer: (origin, target) -> network
        self.volunteered_legs: dict[tuple[NodeId, NodeId], NetworkId] = {}
        #: peers for which every repair attempt has failed so far
        self.unreachable: set[NodeId] = set()
        #: set by the daemon when notify_peers is on: recheck(peer, network)
        self.recheck_link = None
        #: suppression window for notification storms: (peer, net) -> time
        self._notified_at: dict[tuple[NodeId, NetworkId], float] = {}
        registry = current_registry()
        self.repairs = Counter(f"drs{table.owner}.repairs", total=registry.counter("drs_repairs_total"))
        # nothing reads these three per daemon: the run's totals are the only count
        self._discoveries_started = registry.counter("drs_discoveries_total")
        self._failed_repairs = registry.counter("drs_failed_repairs_total")
        self._control_bytes = registry.counter("drs_control_bytes_total")
        self._m_latency = registry.histogram("drs_failover_latency_seconds")
        self._m_fanout = registry.histogram("drs_broadcast_fanout", buckets=DEFAULT_COUNT_BUCKETS)
        table.on_transition(self._on_link_transition)
        stack.udp.bind(DRS_PORT, self._on_control)

    @property
    def owner(self) -> NodeId:
        """The node this engine runs on."""
        return self.table.owner

    # ----------------------------------------------------------------- spans
    def _span_begin_failover(
        self, peer: NodeId, detected_at: float, network: NetworkId | None = None, trigger: str = "probe-loss"
    ) -> None:
        # The span start is detected_at, so its duration is exactly the
        # value observed into drs_failover_latency_seconds at close.
        spans = self._spans
        if spans is None or not spans.wants() or peer in self._failover_spans:
            return
        parent = spans.find_incident(node=self.owner, peer=peer, network=network)
        self._failover_spans[peer] = spans.begin(
            f"failover node{self.owner}->peer{peer}",
            "failover",
            node=self.owner,
            parent=parent,
            start=detected_at,
            peer=peer,
            trigger=trigger,
        )

    def _span_end_failover(self, peer: NodeId, outcome: str, **attrs) -> None:
        span = self._failover_spans.pop(peer, None)
        if span is not None:
            self._spans.end(span, outcome=outcome, **attrs)

    # ------------------------------------------------------------ transitions
    def _on_link_transition(self, link: PeerLink, old: LinkState, new: LinkState) -> None:
        if new is LinkState.DOWN:
            self._on_link_down(link)
        elif new is LinkState.UP and old in (LinkState.DOWN, LinkState.SUSPECT, LinkState.UNKNOWN):
            self._on_link_up(link)

    def _on_link_down(self, link: PeerLink) -> None:
        peer = link.peer
        # Two-hop repair routes riding this link as their first leg die with it.
        for target, router in list(self.repaired_via.items()):
            if router != peer:
                continue
            via = self.stack.table.lookup(target)
            if via is not None and not via.direct and via.next_hop == peer and via.network == link.network:
                self.repaired_via.pop(target, None)
                self.stack.table.withdraw(target, RouteSource.DRS)
                if self.trace is not None:
                    self.trace.record("drs-leg1-lost", node=self.owner, peer=target, router=peer)
                self._span_begin_failover(target, self.sim.now, network=link.network, trigger="leg1-lost")
                self._repair(target, self.sim.now)
        active = self.stack.table.lookup(peer)
        route_broken = (
            active is None
            or (active.direct and active.network == link.network)
            or (not active.direct and self._via_leg_suspect(active, link))
        )
        if not route_broken:
            return
        detected_at = self.sim.now
        if self.trace is not None:
            self.trace.record("drs-detect", node=self.owner, peer=peer, network=link.network)
        self._span_begin_failover(peer, detected_at, network=link.network)
        if self.config.notify_peers:
            self._notify_link_down(peer, link.network)
        self._repair(peer, detected_at)

    def _notify_link_down(self, peer: NodeId, network: NetworkId) -> None:
        # Suppress if someone (including us) already announced this link
        # within the last sweep: one failure, one storm-free announcement.
        last = self._notified_at.get((peer, network))
        if last is not None and self.sim.now - last < self.config.sweep_period_s:
            return
        self._notified_at[(peer, network)] = self.sim.now
        note = LinkDownNotification(origin=self.owner, peer=peer, network=network)
        fanout = 0
        for net in self.stack.node.networks:
            if self.stack.udp.broadcast(net, DRS_PORT, data=note, data_bytes=LINK_DOWN_NOTIFICATION_BYTES):
                self._control_bytes.add(LINK_DOWN_NOTIFICATION_BYTES)
                fanout += 1
        self._m_fanout.observe(fanout)

    def _repair(self, peer: NodeId, detected_at: float) -> None:
        # Step 1: try the second direct link.
        other_nets = self.table.up_networks_to(peer)
        if other_nets:
            self._install_direct(peer, other_nets[0], detected_at)
            return
        # Step 2: no direct link believed up -> broadcast discovery.
        self._start_discovery(peer, detected_at)

    def _via_leg_suspect(self, active: Route, link: PeerLink) -> bool:
        # Active route is two-hop via a router; it is broken if the failed
        # link is our first leg to that router.
        return link.peer == active.next_hop and link.network == active.network

    def _on_link_up(self, link: PeerLink) -> None:
        peer = link.peer
        self.unreachable.discard(peer)
        active = self.stack.table.lookup(peer)
        if active is not None and not active.direct:
            if peer in self.repaired_via:
                # A direct link healed while we were routing two-hop: restore it.
                self.repaired_via.pop(peer, None)
                self._install_direct(peer, link.network, self.sim.now, healed=True)
            return
        if active is None:
            self._install_direct(peer, link.network, self.sim.now, healed=True)
            return
        if active.network != link.network and not self.table.is_up(peer, active.network):
            # The active direct route rides a link still believed down (e.g.
            # discovery failed during a total outage); move to the healed one.
            self._span_begin_failover(peer, self.sim.now, network=link.network, trigger="link-up")
            self._install_direct(peer, link.network, self.sim.now)

    # ----------------------------------------------------------- direct swap
    def _install_direct(self, peer: NodeId, network: NetworkId, detected_at: float, healed: bool = False) -> None:
        if healed:
            # Withdraw our repair route; the shadowed static entry returns.
            restored = self.stack.table.withdraw(peer, RouteSource.DRS)
            if restored is None or restored.network != network or not restored.direct:
                self.stack.table.install(
                    Route(dst=peer, network=network, next_hop=peer, source=RouteSource.DRS, installed_at=self.sim.now)
                )
            if self.trace is not None:
                self.trace.record("drs-restore", node=self.owner, peer=peer, network=network)
                if self._spans.wants():
                    self._spans.closed(
                        f"restore node{self.owner}->peer{peer}",
                        "restore",
                        start=self.sim.now,
                        node=self.owner,
                        parent=self._failover_spans.get(peer),
                        peer=peer,
                        network=network,
                    )
            return
        self.stack.table.install(
            Route(dst=peer, network=network, next_hop=peer, source=RouteSource.DRS, installed_at=self.sim.now)
        )
        self.repaired_via.pop(peer, None)
        self.unreachable.discard(peer)
        self.repairs.add()
        self._m_latency.observe(self.sim.now - detected_at)
        self._span_end_failover(peer, "direct-swap", network=network)
        hb = heartbeat()
        if hb is not None:
            hb.add(0, repairs=1)
        if self.trace is not None:
            self.trace.record(
                "drs-repair",
                node=self.owner,
                peer=peer,
                kind="direct-swap",
                network=network,
                detected_at=detected_at,
                repair_latency=self.sim.now - detected_at,
            )

    # ------------------------------------------------------------- discovery
    def _start_discovery(self, target: NodeId, detected_at: float) -> None:
        # One discovery per target at a time.
        for disc in self._discoveries.values():
            if disc.target == target and not disc.settled:
                return
        request_id = next(_request_ids)
        disc = _Discovery(
            target=target,
            request_id=request_id,
            started_at=self.sim.now,
            failure_detected_at=detected_at,
        )
        self._discoveries[request_id] = disc
        self._discoveries_started.add()
        # Path-check retries and triggered rechecks reach here without an
        # open failover span; open one so the episode is still attributed.
        self._span_begin_failover(target, detected_at, trigger="discovery")
        if self._spans is not None and self._spans.wants():
            disc.span = self._spans.begin(
                f"discovery req{request_id}",
                "discovery",
                node=self.owner,
                parent=self._failover_spans.get(target),
                target=target,
                request_id=request_id,
            )
        request = DiscoveryRequest(origin=self.owner, target=target, request_id=request_id)
        sent_any = False
        fanout = 0
        for net in self.stack.node.networks:
            if self.stack.udp.broadcast(net, DRS_PORT, data=request, data_bytes=DISCOVERY_REQUEST_BYTES):
                self._control_bytes.add(DISCOVERY_REQUEST_BYTES)
                sent_any = True
                fanout += 1
        self._m_fanout.observe(fanout)
        if not sent_any:
            # Both local NICs refused: the node is network-dead; nothing to do.
            self._settle_failure(disc)
            return
        disc.timeout_event = self.sim.schedule(
            self.config.discovery_timeout_s, lambda: self._on_discovery_timeout(request_id)
        )

    def _on_discovery_timeout(self, request_id: int) -> None:
        disc = self._discoveries.get(request_id)
        if disc is None or disc.settled:
            return
        if disc.offers:
            self._choose_offer(disc)
        else:
            self._settle_failure(disc)

    def _settle_failure(self, disc: _Discovery) -> None:
        disc.settled = True
        self._discoveries.pop(disc.request_id, None)
        self._failed_repairs.add()
        self.unreachable.add(disc.target)
        if disc.span is not None:
            self._spans.end(disc.span, outcome="no-route", offers=len(disc.offers))
        self._span_end_failover(disc.target, "unreachable")
        hb = heartbeat()
        if hb is not None:
            hb.add(0, failed_repairs=1)
        if self.trace is not None:
            self.trace.record("drs-unreachable", node=self.owner, peer=disc.target)

    def _choose_offer(self, disc: _Discovery) -> None:
        # Deterministic preference: the target itself (stale belief case)
        # beats volunteers; then lowest router id.
        offer = min(disc.offers, key=lambda o: (o.router != o.target, o.router))
        if offer.router == disc.target:
            # Our DOWN belief was stale: the target answered the broadcast
            # directly, so the arrival network works; restore direct.
            disc.settled = True
            self._discoveries.pop(disc.request_id, None)
            if disc.span is not None:
                self._spans.end(disc.span, outcome="target-answered", offers=len(disc.offers))
            self._install_direct(disc.target, offer.leg2_network, disc.failure_detected_at)
            self.table.record_success(disc.target, offer.leg2_network, self.sim.now)
            return
        request = RouteInstallRequest(
            origin=self.owner, target=disc.target, request_id=disc.request_id, leg2_network=offer.leg2_network
        )
        # Ask the volunteer to pin its leg; routed send (our route to the
        # volunteer is intact, or its offer could not have reached us).
        if self.stack.udp.send(offer.router, DRS_PORT, data=request, data_bytes=INSTALL_REQUEST_BYTES):
            self._control_bytes.add(INSTALL_REQUEST_BYTES)
        # Install optimistically on offer selection; the ack confirms, and a
        # failed install surfaces via the path checker.
        self._install_via(disc, offer)

    def _install_via(self, disc: _Discovery, offer: RouteOffer) -> None:
        disc.settled = True
        self._discoveries.pop(disc.request_id, None)
        if disc.span is not None:
            self._spans.end(disc.span, outcome="offer", router=offer.router, offers=len(disc.offers))
        # First leg: whichever network we can still reach the router on.
        router_nets = self.table.up_networks_to(offer.router)
        leg1 = router_nets[0] if router_nets else self.stack.node.networks[0]
        self.stack.table.install(
            Route(
                dst=disc.target,
                network=leg1,
                next_hop=offer.router,
                source=RouteSource.DRS,
                metric=2,
                installed_at=self.sim.now,
            )
        )
        self.repaired_via[disc.target] = offer.router
        self.unreachable.discard(disc.target)
        self.repairs.add()
        self._m_latency.observe(self.sim.now - disc.failure_detected_at)
        self._span_end_failover(disc.target, "two-hop", router=offer.router, leg1_network=leg1)
        hb = heartbeat()
        if hb is not None:
            hb.add(0, repairs=1)
        if self.trace is not None:
            self.trace.record(
                "drs-repair",
                node=self.owner,
                peer=disc.target,
                kind="two-hop",
                router=offer.router,
                leg1_network=leg1,
                leg2_network=offer.leg2_network,
                detected_at=disc.failure_detected_at,
                repair_latency=self.sim.now - disc.failure_detected_at,
            )

    # ---------------------------------------------------------- control plane
    def _on_control(self, dgram, src_node: NodeId, arrived_on: NetworkId) -> None:
        msg = dgram.data
        if isinstance(msg, DiscoveryRequest):
            self._answer_discovery(msg, arrived_on)
        elif isinstance(msg, RouteOffer):
            disc = self._discoveries.get(msg.request_id)
            if disc is not None and not disc.settled and msg.target == disc.target:
                disc.offers.append(msg)
                # First usable offer settles immediately: repair time matters
                # more than optimal router choice (paper's "new route is often
                # found in the time of a TCP retransmit").
                if disc.timeout_event is not None:
                    self.sim.cancel(disc.timeout_event)
                self._choose_offer(disc)
        elif isinstance(msg, RouteInstallRequest) and msg.target != self.owner:
            self._pin_second_leg(msg)
        elif isinstance(msg, InstallAck):
            pass  # optimistic install already done; ack is confirmation only
        elif isinstance(msg, LinkDownNotification):
            self._on_link_down_notification(msg)

    def _on_link_down_notification(self, msg: LinkDownNotification) -> None:
        if not self.config.notify_peers or msg.peer == self.owner:
            return
        # Remember the announcement so our own detection does not re-announce.
        self._notified_at[(msg.peer, msg.network)] = self.sim.now
        link = self.table.link(msg.peer, msg.network)
        if link.state is LinkState.DOWN or self.recheck_link is None:
            return
        # Recheck immediately rather than waiting for the sweep to come by.
        self.recheck_link(msg.peer, msg.network)

    def _answer_discovery(self, msg: DiscoveryRequest, arrived_on: NetworkId) -> None:
        if msg.origin == self.owner:
            return
        if msg.target == self.owner:
            # The origin can evidently reach us on the arrival network.
            offer = RouteOffer(router=self.owner, target=self.owner, request_id=msg.request_id, leg2_network=arrived_on)
            if self.stack.udp.send_direct(arrived_on, msg.origin, DRS_PORT, data=offer, data_bytes=ROUTE_OFFER_BYTES):
                self._control_bytes.add(ROUTE_OFFER_BYTES)
            return
        up_nets = self.table.up_networks_to(msg.target)
        if not up_nets:
            return  # cannot help
        # Prefer a second leg on a different network than the first leg.
        leg2 = next((n for n in up_nets if n != arrived_on), up_nets[0])
        offer = RouteOffer(router=self.owner, target=msg.target, request_id=msg.request_id, leg2_network=leg2)
        if self.stack.udp.send_direct(arrived_on, msg.origin, DRS_PORT, data=offer, data_bytes=ROUTE_OFFER_BYTES):
            self._control_bytes.add(ROUTE_OFFER_BYTES)

    def _pin_second_leg(self, msg: RouteInstallRequest) -> None:
        # Pin a direct host route for the target so forwarded traffic from
        # the origin exits on the verified leg regardless of our own table.
        self.stack.table.install(
            Route(
                dst=msg.target,
                network=msg.leg2_network,
                next_hop=msg.target,
                source=RouteSource.DRS,
                installed_at=self.sim.now,
            )
        )
        self.volunteered_legs[(msg.origin, msg.target)] = msg.leg2_network
        ack = InstallAck(router=self.owner, target=msg.target, request_id=msg.request_id)
        if self.stack.udp.send(msg.origin, DRS_PORT, data=ack, data_bytes=INSTALL_ACK_BYTES):
            self._control_bytes.add(INSTALL_ACK_BYTES)

    # ------------------------------------------------------------ path checks
    def check_repaired_paths(self) -> None:
        """Re-validate two-hop routes and retry unreachable peers.

        Called periodically by the daemon.  A failed end-to-end check drops
        the repair route and re-runs discovery, so a dead volunteer cannot
        silently blackhole a peer; unreachable peers get a fresh discovery
        round each period in case the cluster healed around them.
        """
        for peer in list(self.repaired_via):
            self.stack.icmp.ping(peer, timeout_s=self.config.probe_timeout_s, callback=self._on_path_check)
        for peer in list(self.unreachable):
            if self.table.peer_reachable_direct(peer):
                self.unreachable.discard(peer)  # monitor healed it already
            else:
                self.unreachable.discard(peer)
                self._start_discovery(peer, self.sim.now)

    def _on_path_check(self, result: PingResult) -> None:
        peer = result.dst_node
        if result.status is PingStatus.REPLY or peer not in self.repaired_via:
            return
        self.repaired_via.pop(peer, None)
        self.stack.table.withdraw(peer, RouteSource.DRS)
        if self.trace is not None:
            self.trace.record("drs-path-check-failed", node=self.owner, peer=peer)
        self._start_discovery(peer, self.sim.now)
