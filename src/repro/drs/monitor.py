"""Phase one of the DRS daemon loop: proactive link monitoring.

The monitor walks the (peer, network) link list in a fixed round-robin,
sending one direct ICMP echo per slot, with slots spaced so a full sweep
takes ``config.sweep_period_s``.  That spreading is what keeps the probe
load at the budgeted fraction of segment bandwidth instead of bursting —
and it is the knob Figure 1 trades against detection latency.
"""

from __future__ import annotations

from typing import Callable

from repro.drs.config import PROBE_WIRE_BYTES, DrsConfig
from repro.drs.state import PeerLink, PeerTable
from repro.obs.metrics import current_registry
from repro.obs.spans import span_log
from repro.protocols.icmp import IcmpService, PingResult, PingStatus
from repro.simkit import Counter, Process, Simulator, TraceRecorder


class LinkMonitor:
    """Round-robin prober for one daemon."""

    def __init__(
        self,
        sim: Simulator,
        icmp: IcmpService,
        table: PeerTable,
        config: DrsConfig,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.icmp = icmp
        self.table = table
        self.config = config
        self._spans = span_log(trace) if trace is not None else None
        registry = current_registry()
        owner = f"drs{table.owner}"
        self.probes_sent = Counter(f"{owner}.probes", total=registry.counter("drs_probes_sent_total"))
        self.probe_bytes = Counter(f"{owner}.probe_bytes", total=registry.counter("drs_probe_bytes_total"))
        self._m_rtt = registry.histogram("drs_probe_rtt_seconds")
        self._proc: Process | None = None
        self._outstanding = 0

    # ------------------------------------------------------------------ run
    def start(self) -> Process:
        """Start the monitoring process; returns it for lifecycle control."""
        if self._proc is not None and not self._proc.finished:
            raise RuntimeError("monitor already running")
        self._proc = Process(self.sim, self._run(), name=f"drs{self.table.owner}.monitor")
        return self._proc

    def stop(self) -> None:
        """Stop probing (outstanding probe timers still resolve)."""
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    @property
    def running(self) -> bool:
        """True while the monitor loop is active."""
        return self._proc is not None and not self._proc.finished

    def _run(self):
        # Stagger daemons so the cluster's probes interleave instead of
        # synchronizing into bursts every sweep.
        links = self.table.links()
        if not links:
            return
        gap = self.config.sweep_period_s / len(links)
        yield (self.table.owner * gap) % self.config.sweep_period_s
        while True:
            for link in self.table.links():
                self._probe(link)
                yield gap

    # ---------------------------------------------------------------- probe
    def _probe(self, link: PeerLink) -> None:
        self.probes_sent.add()
        self.probe_bytes.add(PROBE_WIRE_BYTES)
        link.last_probe_at = self.sim.now
        self._outstanding += 1
        self.icmp.ping_direct(link.network, link.peer, self.config.probe_timeout_s, self._on_result)

    def _on_result(self, result: PingResult) -> None:
        self._outstanding -= 1
        peer, network = result.dst_node, result.network
        if result.rtt_s is not None:
            self._m_rtt.observe(result.rtt_s)
        if result.status is PingStatus.REPLY:
            # (Reply wire bytes are accounted by the responder's backplane;
            # probe_bytes here tracks this daemon's request-side load.)
            self.table.record_success(peer, network, self.sim.now)
        else:
            self._span_probe_loss(peer, network, result.status.value)
            self.table.record_failure(peer, network, self.sim.now, self.config.probe_retries)

    def _span_probe_loss(self, peer: int, network: int, status: str) -> None:
        # Each lost probe becomes a child span of the open incident it is
        # (most likely) evidence of, spanning send time to timeout.
        spans = self._spans
        if spans is None or not spans.wants():
            return
        link = self.table.link(peer, network)
        spans.closed(
            f"probe-loss node{self.table.owner}->peer{peer}.{network}",
            "probe-loss",
            start=link.last_probe_at if link.last_probe_at is not None else self.sim.now,
            node=self.table.owner,
            parent=spans.find_incident(node=self.table.owner, peer=peer, network=network),
            peer=peer,
            network=network,
            status=status,
        )

    # ------------------------------------------------------------ diagnostics
    def immediate_recheck(self, peer: int, network: int, callback: Callable[[bool], None]) -> None:
        """Out-of-band single probe (used by failover to confirm an alternate).

        Invokes ``callback(is_up)`` and updates the peer table either way.
        """

        def on_result(result: PingResult) -> None:
            up = result.status is PingStatus.REPLY
            if result.rtt_s is not None:
                self._m_rtt.observe(result.rtt_s)
            if up:
                self.table.record_success(peer, network, self.sim.now)
            else:
                self._span_probe_loss(peer, network, result.status.value)
                self.table.record_failure(peer, network, self.sim.now, threshold=1)
            callback(up)

        self.probes_sent.add()
        self.probe_bytes.add(PROBE_WIRE_BYTES)
        self.icmp.ping_direct(network, peer, timeout_s=self.config.probe_timeout_s, callback=on_result)
