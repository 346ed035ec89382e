"""Failable components: the universe the survivability model counts over.

Every hardware element the paper's probability model considers — the 2N NICs
and the 2 backplanes — derives from :class:`Component`: a named object with
an up/down state, fail/repair transitions, and state-change listeners (the
fault injector and the trace recorder hook in here).
"""

from __future__ import annotations

import enum
from typing import Callable


class ComponentKind(enum.Enum):
    """Which hardware class a component belongs to (for failure statistics)."""

    NIC = "nic"
    HUB = "hub"


class Component:
    """Base class for anything that can fail.

    State transitions are idempotent: failing a failed component is a no-op
    and does not re-notify listeners.
    """

    def __init__(self, name: str, kind: ComponentKind) -> None:
        self.name = name
        self.kind = kind
        #: True while the component is operational; a plain attribute, so the
        #: frame path's up/down test is one compare (change it via fail/repair)
        self.up = True
        self._listeners: list[Callable[["Component", bool], None]] = []
        self.fail_count = 0
        self.repair_count = 0

    def on_state_change(self, listener: Callable[["Component", bool], None]) -> None:
        """Register ``listener(component, up)`` for future transitions."""
        self._listeners.append(listener)

    def fail(self) -> bool:
        """Take the component down. Returns True if the state changed."""
        if not self.up:
            return False
        self.up = False
        self.fail_count += 1
        self._notify()
        return True

    def repair(self) -> bool:
        """Bring the component back up. Returns True if the state changed."""
        if self.up:
            return False
        self.up = True
        self.repair_count += 1
        self._notify()
        return True

    def _notify(self) -> None:
        for listener in self._listeners:
            listener(self, self.up)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<{type(self).__name__} {self.name} {state}>"
