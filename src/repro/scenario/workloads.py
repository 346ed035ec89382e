"""The two rows of :data:`repro.scenario.spec.WORKLOADS` that need no application layer.

A starter is called as ``start(sim, stacks, config, rng)`` and returns what
the report reads through ``metrics()``; the voice-mail and MPI starters live
beside their applications in :mod:`repro.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocols.stack import HostStack
from repro.simkit import Process, Simulator

STREAM_PORT = 9000


@dataclass(frozen=True)
class StreamConfig:
    """One message every ``interval_s`` from node ``src`` to node ``dst`` over one connection."""

    src: int = 0
    dst: int = 1
    interval_s: float = 0.1
    message_bytes: int = 256
    max_retries: int = 20  #: the connection's retransmission budget
    window_segments: int = 8  #: the connection's send window

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.window_segments < 1:
            raise ValueError("window_segments must be >= 1")
        for name in ("src", "dst", "message_bytes", "max_retries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class MessageStream:
    """The ``stream`` starter: listen at ``dst``, connect from ``src``, and start sending."""

    def __init__(self, sim: Simulator, stacks: dict[int, HostStack], config: StreamConfig, rng) -> None:
        self.sim = sim
        self.config = config
        self.arrivals: list[float] = []
        stacks[config.dst].tcp.listen(STREAM_PORT, on_message=lambda conn, data, size: self.arrivals.append(sim.now))
        self.conn = stacks[config.src].tcp.connect(
            config.dst, STREAM_PORT, max_retries=config.max_retries, window_segments=config.window_segments
        )
        Process(sim, self._send(), name="scenario.stream")

    def _send(self):
        while True:
            self.conn.send_message(data=self.sim.now, data_bytes=self.config.message_bytes)
            yield self.config.interval_s

    def metrics(self) -> dict[str, Any]:
        """The report's stream rows."""
        latencies = list(self.conn.message_latencies.values())
        return {
            "stream messages sent": self.conn.messages_sent,
            "stream messages delivered": len(latencies),
            "stream worst latency (s)": max(latencies) if latencies else float("inf"),
            "stream last arrival (s)": self.arrivals[-1] if self.arrivals else float("nan"),
            "stream retransmissions": int(self.conn.retransmissions.value),
        }


class Idle:
    """The ``none`` starter: protocol traffic only, and no report rows."""

    def __init__(self, sim: Simulator, stacks: dict[int, HostStack], config: None, rng) -> None:
        pass

    def metrics(self) -> dict[str, Any]:
        """No rows."""
        return {}
