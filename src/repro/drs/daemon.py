"""The DRS daemon: monitor + failover + periodic path validation.

"The DRS demon loops through a cycle of monitoring communication links,
answering requests, and fixing problems as they occur, for the life of the
server cluster."  Request answering is event-driven (ICMP echo responder and
the UDP control handler registered by the failover engine); this class wires
the pieces together per node and runs the periodic loops.
"""

from __future__ import annotations

from repro.drs.config import DrsConfig
from repro.drs.failover import FailoverEngine
from repro.drs.monitor import LinkMonitor
from repro.drs.state import PeerTable
from repro.netsim.topology import Cluster
from repro.obs.spans import Span, span_log
from repro.protocols.routing import Deployment, deploy
from repro.protocols.stack import HostStack
from repro.simkit import Process, Simulator, TraceRecorder


class DrsDaemon:
    """One node's DRS instance."""

    def __init__(
        self,
        sim: Simulator,
        stack: HostStack,
        peers: list[int],
        config: DrsConfig,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.stack = stack
        self.config = config
        self.table = PeerTable(owner=stack.node.node_id, peers=peers, networks=stack.node.networks)
        self.monitor = LinkMonitor(sim, stack.icmp, self.table, config, trace=trace)
        self.failover = FailoverEngine(sim, stack, self.table, config, trace=trace)
        # Triggered updates (notify_peers): notifications prompt an immediate
        # out-of-band recheck of the announced link.
        self.failover.recheck_link = lambda peer, net: self.monitor.immediate_recheck(peer, net, lambda up: None)
        self._path_check_proc: Process | None = None
        self._spans = span_log(trace) if trace is not None else None
        self._life_span: Span | None = None

    @property
    def node_id(self) -> int:
        """The node this daemon runs on."""
        return self.stack.node.node_id

    def start(self) -> None:
        """Start the monitor loop and the periodic path checker."""
        self.monitor.start()
        if self._path_check_proc is None or self._path_check_proc.finished:
            self._path_check_proc = Process(self.sim, self._path_check_loop(), name=f"drs{self.node_id}.pathcheck")
        if self._spans is not None and self._spans.wants() and self._life_span is None:
            self._life_span = self._spans.begin(f"daemon node{self.node_id}", "daemon", node=self.node_id)

    def stop(self) -> None:
        """Stop periodic activity (control-plane handlers stay registered)."""
        self.monitor.stop()
        if self._path_check_proc is not None:
            self._path_check_proc.kill()
            self._path_check_proc = None
        if self._life_span is not None and self._spans is not None:
            self._spans.end(self._life_span)
            self._life_span = None

    @property
    def running(self) -> bool:
        """True while the monitor loop is active."""
        return self.monitor.running

    def _path_check_loop(self):
        while True:
            yield self.config.path_check_period_s
            self.failover.check_repaired_paths()


def install_drs(cluster: Cluster, stacks: dict[int, HostStack], config: DrsConfig | None = None) -> Deployment:
    """Install and start a DRS daemon on every cluster node.

    Every daemon monitors every other node on both networks — the full-mesh
    check schedule the paper's deployment used within a cluster.  All daemons
    publish into the current metrics registry.
    """
    config = config or DrsConfig()
    peers = [node.node_id for node in cluster.nodes]
    return deploy(cluster, config, lambda node: DrsDaemon(cluster.sim, stacks[node], peers, config, cluster.trace))
