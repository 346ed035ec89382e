"""Failable components: the universe the survivability model counts over.

Every hardware element the paper's probability model considers — the 2N NICs
and the 2 backplanes — derives from :class:`Component`: a named object with
an up/down state and fail/repair transitions, which the fault injector drives.
"""

from __future__ import annotations

import enum


class ComponentKind(enum.Enum):
    """Which hardware class a component belongs to (for failure statistics)."""

    NIC = "nic"
    HUB = "hub"


class Component:
    """Base class for anything that can fail.

    State transitions are idempotent: failing a failed component is a no-op
    and is not counted again.
    """

    def __init__(self, name: str, kind: ComponentKind) -> None:
        self.name = name
        self.kind = kind
        #: True while the component is operational; a plain attribute, so the
        #: frame path's up/down test is one compare (change it via fail/repair)
        self.up = True
        self.fail_count = 0
        self.repair_count = 0

    def fail(self) -> bool:
        """Take the component down. Returns True if the state changed."""
        if not self.up:
            return False
        self.up = False
        self.fail_count += 1
        return True

    def repair(self) -> bool:
        """Bring the component back up. Returns True if the state changed."""
        if self.up:
            return False
        self.up = True
        self.repair_count += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<{type(self).__name__} {self.name} {state}>"
