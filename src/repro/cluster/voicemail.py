"""Voice-mail cluster workload — the paper's deployment context.

"The DRS was deployed in 27 local voice mail server clusters by MCI
WorldCom, each cluster contains between 8 and 12 servers."

The model: subscribers are sharded to home servers by id.  Calls land on an
arbitrary ingress server (whichever trunk took the call); a *deposit* whose
ingress is not the subscriber's home server requires a server-to-server
transfer of the voice payload, and a *retrieve* streams it back from the
home server to the ingress.  Those transfers are exactly the
server-to-server traffic DRS exists to protect.

Metrics: per-operation completion latency (transport-level delivery) and the
count of operations stalled beyond a threshold — the "application noticed
the failure" signal used by the failover experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.messaging import ClusterComm, install_messaging
from repro.protocols.stack import HostStack
from repro.simkit import Process, Simulator


@dataclass(frozen=True)
class VoicemailConfig:
    """Workload shape.

    ``message_bytes`` defaults to a short (3 s) voice clip at 64 kb/s; the
    deployed clusters handled longer messages, but transfer count — not
    size — is what exercises failover, and short clips keep simulated wall
    time reasonable.
    """

    subscribers: int = 1000
    call_rate_per_s: float = 5.0
    deposit_fraction: float = 0.6
    message_bytes: int = 24_000
    stall_threshold_s: float = 1.0

    def __post_init__(self) -> None:
        if self.subscribers < 1:
            raise ValueError("subscribers must be >= 1")
        if self.call_rate_per_s <= 0:
            raise ValueError("call_rate_per_s must be positive")
        if not 0 <= self.deposit_fraction <= 1:
            raise ValueError("deposit_fraction must be in [0, 1]")
        if self.message_bytes < 0:
            raise ValueError("message_bytes must be >= 0")


@dataclass
class _PendingOp:
    kind: str
    src: int
    dst: int
    msg_id: int
    started_at: float


@dataclass
class VoicemailStats:
    """Aggregated workload outcome."""

    operations: int = 0
    local_operations: int = 0
    transfers: int = 0
    completed: int = 0
    latencies: list[float] = field(default_factory=list)
    stalled: int = 0

    def completion_rate(self) -> float:
        """Fraction of inter-server transfers that completed."""
        return self.completed / self.transfers if self.transfers else 1.0

    def mean_latency(self) -> float:
        """Mean completion latency of completed transfers (0 if none)."""
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    def p99_latency(self) -> float:
        """99th-percentile completion latency (0 if none)."""
        return float(np.percentile(self.latencies, 99)) if self.latencies else 0.0


class VoicemailCluster:
    """Drives the workload over a messaging layer."""

    def __init__(
        self,
        sim: Simulator,
        comm: ClusterComm,
        config: VoicemailConfig,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.comm = comm
        self.config = config
        self.rng = rng
        self.nodes = sorted(comm.endpoints)
        self.stats = VoicemailStats()
        self._pending: list[_PendingOp] = []
        self._proc: Process | None = None
        self._collector: Process | None = None
        # mailbox store: home node -> subscriber -> message count
        self.mailboxes: dict[int, dict[int, int]] = {n: {} for n in self.nodes}
        for endpoint in comm.endpoints.values():
            endpoint.on_receive(self._on_delivery)

    def home_of(self, subscriber: int) -> int:
        """The subscriber's home server (static shard by id)."""
        return self.nodes[subscriber % len(self.nodes)]

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin generating calls and collecting completions."""
        if self._proc is None or self._proc.finished:
            self._proc = Process(self.sim, self._call_loop(), name="voicemail.calls")
        if self._collector is None or self._collector.finished:
            self._collector = Process(self.sim, self._collect_loop(), name="voicemail.collect")

    def stop(self) -> None:
        """Stop generating calls (in-flight transfers keep completing)."""
        if self._proc is not None:
            self._proc.kill()
            self._proc = None
        if self._collector is not None:
            self._collector.kill()
            self._collector = None

    def _call_loop(self):
        while True:
            yield float(self.rng.exponential(1.0 / self.config.call_rate_per_s))
            self._one_call()

    def _one_call(self) -> None:
        subscriber = int(self.rng.integers(self.config.subscribers))
        home = self.home_of(subscriber)
        ingress = self.nodes[int(self.rng.integers(len(self.nodes)))]
        deposit = bool(self.rng.random() < self.config.deposit_fraction)
        self.stats.operations += 1
        if ingress == home:
            # Served locally: store or read the mailbox, no network involved.
            self.stats.local_operations += 1
            if deposit:
                box = self.mailboxes[home].setdefault(subscriber, 0)
                self.mailboxes[home][subscriber] = box + 1
            return
        kind = "deposit" if deposit else "retrieve"
        src, dst = (ingress, home) if deposit else (home, ingress)
        msg_id = self.comm.endpoint(src).send(
            dst, tag=f"vm-{kind}", payload={"subscriber": subscriber}, size_bytes=self.config.message_bytes
        )
        self.stats.transfers += 1
        self._pending.append(_PendingOp(kind=kind, src=src, dst=dst, msg_id=msg_id, started_at=self.sim.now))

    def _on_delivery(self, src: int, tag: str, payload, size: int) -> None:
        if tag == "vm-deposit":
            subscriber = payload["subscriber"]
            home = self.home_of(subscriber)
            self.mailboxes[home][subscriber] = self.mailboxes[home].get(subscriber, 0) + 1

    def _collect_loop(self):
        # Poll transport completion latencies; cheap and avoids coupling the
        # workload to TCP internals.
        while True:
            yield 0.25
            self.collect_completions()

    def collect_completions(self) -> None:
        """Harvest completion latencies for finished transfers."""
        still_pending: list[_PendingOp] = []
        for op in self._pending:
            latency = self.comm.endpoint(op.src).latency_of(op.dst, op.msg_id)
            if latency is None:
                still_pending.append(op)
                continue
            self.stats.completed += 1
            self.stats.latencies.append(latency)
            if latency > self.config.stall_threshold_s:
                self.stats.stalled += 1
        self._pending = still_pending

    def metrics(self) -> dict[str, Any]:
        """The scenario report's voice-mail rows."""
        self.collect_completions()
        return {
            "voicemail operations": self.stats.operations,
            "voicemail transfers": self.stats.transfers,
            "voicemail completion rate": self.stats.completion_rate(),
            "voicemail mean latency (s)": self.stats.mean_latency(),
            "voicemail stalled ops": self.stats.stalled,
        }


def start_voicemail(
    sim: Simulator, stacks: dict[int, HostStack], config: VoicemailConfig, rng: np.random.Generator
) -> VoicemailCluster:
    """Install the messaging layer on ``stacks``, then start the workload over it."""
    workload = VoicemailCluster(sim, install_messaging(sim, stacks), config, rng=rng)
    workload.start()
    return workload
