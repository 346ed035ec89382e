"""Per-daemon link-state tracking.

Each DRS daemon keeps, for every (peer, network) pair it monitors, the state
the paper describes ("each demon keeps track of which hosts to monitor and
the state that they are in — up, down"), extended with a SUSPECT state while
consecutive probe losses accumulate toward the DOWN threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.netsim.addresses import NetworkId, NodeId

LinkKey = tuple[NodeId, NetworkId]


class LinkState(enum.Enum):
    """Monitor's belief about one directed link (self -> peer on network)."""

    UNKNOWN = "unknown"   #: never successfully probed yet
    UP = "up"
    SUSPECT = "suspect"   #: some probes lost, threshold not yet reached
    DOWN = "down"


@dataclass
class PeerLink:
    """Mutable monitor record for one (peer, network) link."""

    peer: NodeId
    network: NetworkId
    state: LinkState = LinkState.UNKNOWN
    consecutive_failures: int = 0
    last_ok_at: float | None = None
    last_probe_at: float | None = None
    down_since: float | None = None

    @property
    def key(self) -> LinkKey:
        """The (peer, network) dictionary key for this record."""
        return (self.peer, self.network)


TransitionListener = Callable[[PeerLink, LinkState, LinkState], None]


class PeerTable:
    """All link records for one daemon, with transition notification."""

    def __init__(self, owner: NodeId, peers: list[NodeId], networks: list[NetworkId]) -> None:
        self.owner = owner
        self._links: dict[LinkKey, PeerLink] = {}
        for peer in peers:
            if peer == owner:
                continue
            for net in networks:
                self._links[(peer, net)] = PeerLink(peer=peer, network=net)
        self._listeners: list[TransitionListener] = []

    # ------------------------------------------------------------------ read
    def link(self, peer: NodeId, network: NetworkId) -> PeerLink:
        """The record for one link (KeyError if unmonitored)."""
        return self._links[(peer, network)]

    def links(self) -> list[PeerLink]:
        """All records in deterministic (peer, network) order."""
        return [self._links[k] for k in sorted(self._links)]

    def links_to(self, peer: NodeId) -> list[PeerLink]:
        """Both networks' records for one peer."""
        return [l for l in self.links() if l.peer == peer]

    def peers(self) -> list[NodeId]:
        """All monitored peers, sorted."""
        return sorted({peer for peer, _ in self._links})

    def is_up(self, peer: NodeId, network: NetworkId) -> bool:
        """True iff the link is currently believed UP."""
        return self._links[(peer, network)].state is LinkState.UP

    def up_networks_to(self, peer: NodeId) -> list[NetworkId]:
        """Networks on which this daemon believes it can reach ``peer``."""
        return [l.network for l in self.links_to(peer) if l.state is LinkState.UP]

    def peer_reachable_direct(self, peer: NodeId) -> bool:
        """True iff at least one direct link to ``peer`` is UP."""
        return bool(self.up_networks_to(peer))

    # ----------------------------------------------------------- transitions
    def on_transition(self, listener: TransitionListener) -> None:
        """Register ``listener(link, old_state, new_state)``."""
        self._listeners.append(listener)

    def record_success(self, peer: NodeId, network: NetworkId, now: float) -> None:
        """A probe on this link succeeded."""
        link = self._links[(peer, network)]
        link.consecutive_failures = 0
        link.last_ok_at = now
        link.down_since = None
        if link.state is not LinkState.UP:  # most replies confirm what is known
            self._transition(link, LinkState.UP)

    def record_failure(self, peer: NodeId, network: NetworkId, now: float, threshold: int) -> None:
        """A probe on this link failed; declare DOWN at ``threshold`` misses."""
        link = self._links[(peer, network)]
        link.consecutive_failures += 1
        if link.consecutive_failures >= threshold:
            if link.down_since is None:
                link.down_since = now
            self._transition(link, LinkState.DOWN)
        elif link.state in (LinkState.UP, LinkState.UNKNOWN):
            self._transition(link, LinkState.SUSPECT)

    def _transition(self, link: PeerLink, new: LinkState) -> None:
        old = link.state
        if old is new:
            return
        link.state = new
        for listener in self._listeners:
            listener(link, old, new)
