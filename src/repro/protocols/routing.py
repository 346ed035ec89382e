"""Per-host routing tables.

A route answers: to reach ``dst``, transmit on ``network`` addressed to
``next_hop`` (the destination itself for a direct route, or an intermediate
server acting as a DRS two-hop router).

Routes carry a :class:`RouteSource` tag so the protocols can reason about
ownership: DRS never evicts a static route permanently — it installs repair
routes on top and withdraws them once the direct path heals, exactly the
point-to-point route surgery the paper describes.

A routing regime runs one router per host; :class:`Deployment` holds a
cluster's routers and starts and stops them together.  The baselines'
routers are each one :class:`PeriodicRouter` loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.netsim.addresses import NetworkId, NodeId
from repro.simkit import Process, Simulator, TraceRecorder

if TYPE_CHECKING:
    from repro.netsim.topology import Cluster
    from repro.protocols.stack import HostStack


class RouteSource(enum.Enum):
    """Who installed a route (controls preference and eviction rights)."""

    STATIC = "static"      #: boot-time default (direct on the primary network)
    DRS = "drs"            #: installed by the DRS failover engine
    DISTVECTOR = "dv"      #: learned from a RIP-like baseline
    LINKSTATE = "ls"       #: computed by the OSPF-like baseline's SPF
    REACTIVE = "reactive"  #: installed by the reactive baseline after a timeout


@dataclass(frozen=True, slots=True)
class Route:
    """One forwarding entry."""

    dst: NodeId
    network: NetworkId
    next_hop: NodeId
    source: RouteSource = RouteSource.STATIC
    metric: int = 1
    installed_at: float = 0.0

    @property
    def direct(self) -> bool:
        """True when the next hop is the destination itself."""
        return self.next_hop == self.dst

    def __str__(self) -> str:
        via = "direct" if self.direct else f"via {self.next_hop}"
        return f"{self.dst} -> net{self.network} {via} [{self.source.value} m={self.metric}]"


class RoutingTable:
    """Destination-keyed forwarding table that counts its changes.

    Exactly one active route per destination — the DRS design point: repair
    replaces the broken entry rather than accumulating alternatives, and the
    previous entry is remembered so withdrawal can restore it.
    """

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self._routes: dict[NodeId, Route] = {}
        self._shadowed: dict[NodeId, Route] = {}
        self.change_count = 0

    # ------------------------------------------------------------------ read
    def lookup(self, dst: NodeId) -> Route | None:
        """The active route to ``dst``, or None if unreachable."""
        return self._routes.get(dst)

    def __iter__(self) -> Iterator[Route]:
        return iter(sorted(self._routes.values(), key=lambda r: r.dst))

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, dst: NodeId) -> bool:
        return dst in self._routes

    # ----------------------------------------------------------------- write
    def install(self, route: Route) -> None:
        """Set the active route for ``route.dst``, shadowing any prior entry.

        Installing a route for the owner itself is rejected: the cluster's
        loop-freedom argument starts from "no host routes to itself through
        the network".
        """
        if route.dst == self.owner:
            raise ValueError(f"node {self.owner} cannot install a route to itself")
        if route.next_hop == self.owner:
            raise ValueError(f"node {self.owner} cannot be its own next hop (routing loop)")
        prior = self._routes.get(route.dst)
        if prior is not None and prior.source is not route.source:
            self._shadowed[route.dst] = prior
        self._routes[route.dst] = route
        self.change_count += 1

    def withdraw(self, dst: NodeId, source: RouteSource) -> Route | None:
        """Remove the active route to ``dst`` if it was installed by ``source``.

        If an older route from a different source was shadowed, it becomes
        active again.  Returns the new active route (possibly None).
        """
        active = self._routes.get(dst)
        if active is None or active.source is not source:
            return active
        restored = self._shadowed.pop(dst, None)
        if restored is not None:
            self._routes[dst] = restored
        else:
            del self._routes[dst]
        self.change_count += 1
        return restored

    # -------------------------------------------------------------- bulk init
    def install_defaults(self, peers: Iterator[NodeId] | list[NodeId], network: NetworkId = 0) -> None:
        """Boot-time static table: direct routes to every peer on one network."""
        for peer in peers:
            if peer == self.owner:
                continue
            self.install(Route(dst=peer, network=network, next_hop=peer, source=RouteSource.STATIC))

    def snapshot(self) -> dict[NodeId, Route]:
        """A copy of the active table (for assertions and diffing)."""
        return dict(self._routes)


class PeriodicRouter:
    """One host's routing agent whose periodic work is one process.

    A subclass defines the process body ``_loop()`` and its name's ``PREFIX``
    (the process is ``f"{PREFIX}{owner}"``).  Stopping kills the process; the
    agent's control-plane handlers stay registered.
    """

    def __init__(self, sim: Simulator, stack: HostStack, config: Any, trace: TraceRecorder | None) -> None:
        self.sim = sim
        self.stack = stack
        self.config = config
        self.trace = trace
        self._proc: Process | None = None

    @property
    def owner(self) -> NodeId:
        """The node this router runs on."""
        return self.stack.node.node_id

    def start(self) -> None:
        """Start the loop, unless it is running."""
        if self._proc is None or self._proc.finished:
            self._proc = Process(self.sim, self._loop(), name=f"{self.PREFIX}{self.owner}")

    def stop(self) -> None:
        """Stop the loop."""
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def _set_routes(
        self, source: RouteSource, routes: dict[NodeId, tuple[NodeId, NetworkId, int]], category: str
    ) -> None:
        """Make ``routes`` (``dst -> (next_hop, network, metric)``) this host's ``source`` routes.

        Each route that differs from the active one is installed and traced
        under ``category``; a ``source`` route to any other destination is
        withdrawn, which restores whatever it shadowed.
        """
        table = self.stack.table
        for dst, (next_hop, network, metric) in routes.items():
            active = table.lookup(dst)
            wanted = (source, next_hop, network, metric)
            if active is not None and (active.source, active.next_hop, active.network, active.metric) == wanted:
                continue
            table.install(Route(dst, network, next_hop, source, metric, installed_at=self.sim.now))
            if self.trace is not None:
                self.trace.record(category, node=self.owner, dst=dst, via=next_hop, network=network, metric=metric)
        for dst in list(table.snapshot()):
            if dst not in routes:
                table.withdraw(dst, source)


@dataclass
class Deployment:
    """Every router one routing regime runs on a cluster, and the regime's configuration.

    Each router has ``start()`` and ``stop()``; a regime without a daemon
    (static routes) has no routers, so starting and stopping it do nothing.
    """

    config: Any
    routers: dict[NodeId, Any] = field(default_factory=dict)

    def start(self) -> None:
        """Start every router, in node order."""
        for router in self.routers.values():
            router.start()

    def stop(self) -> None:
        """Stop every router, in node order."""
        for router in self.routers.values():
            router.stop()


def deploy(cluster: Cluster, config: Any, router: Callable[[NodeId], Any]) -> Deployment:
    """Build ``router(node_id)`` on every node of ``cluster``, then start them all, in node order."""
    deployment = Deployment(config, {node.node_id: router(node.node_id) for node in cluster.nodes})
    deployment.start()
    return deployment
