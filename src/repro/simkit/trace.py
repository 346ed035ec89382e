"""Measurement primitives: counters and event traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.simkit.simulator import Simulator


class Counter:
    """A monotonically accumulating scalar (packets sent, bits on wire, ...).

    ``total`` is the aggregate this counter is one component of (a hub's bits
    of the run's ``net_bits_carried_total``): every :meth:`add` counts there
    too, so the fact is stated once and the total is the sum of its children.
    """

    __slots__ = ("name", "value", "events", "total")

    def __init__(self, name: str = "", total: "Counter | None" = None) -> None:
        self.name = name
        self.value = 0.0
        self.events = 0
        self.total = total

    def add(self, amount: float = 1.0) -> None:
        """Accumulate ``amount`` and record one contributing event, here and in the total."""
        self.value += amount
        self.events += 1
        total = self.total
        if total is not None:
            total.value += amount
            total.events += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, value={self.value}, events={self.events})"


@dataclass(frozen=True)
class TraceEntry:
    """One recorded event: time, category, and free-form fields."""

    time: float
    category: str
    fields: dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only structured trace, indexed by category.

    A shared recorder is threaded through the network model; tests and
    experiments query it instead of scraping stdout.

    Hooks are for *exporting* entries (streaming JSONL writers, span
    mirrors); an export failure must never corrupt the trace or abort the
    simulation.  A hook that raises is therefore detached after its first
    failure and the exception kept in :attr:`hook_errors` — the trace entry
    itself is always appended before any hook runs.
    """

    def __init__(self, sim: Simulator, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        self._entries: list[TraceEntry] = []
        self._by_category: dict[str, list[TraceEntry]] = {}
        self._hooks: list[Callable[[TraceEntry], None]] = []
        #: exceptions raised by detached hooks, in detachment order
        self.hook_errors: list[Exception] = []

    def record(self, category: str, **fields: Any) -> None:
        """Record one event at the current simulation time."""
        if not self.enabled:
            return
        entry = TraceEntry(time=self.sim.now, category=category, fields=fields)
        self._entries.append(entry)
        bucket = self._by_category.get(category)
        if bucket is None:
            self._by_category[category] = [entry]
        else:
            bucket.append(entry)
        if self._hooks:
            self._dispatch(entry)

    def _dispatch(self, entry: TraceEntry) -> None:
        failed: list[Callable[[TraceEntry], None]] = []
        for hook in self._hooks:
            try:
                hook(entry)
            except Exception as exc:  # noqa: BLE001 - export must not kill the sim
                self.hook_errors.append(exc)
                failed.append(hook)
        for hook in failed:
            self._hooks.remove(hook)

    def add_hook(self, hook: Callable[[TraceEntry], None]) -> None:
        """Invoke ``hook`` synchronously for every future entry."""
        self._hooks.append(hook)

    def entries(self, category: str | None = None) -> list[TraceEntry]:
        """All entries, optionally restricted to one category."""
        if category is None:
            return list(self._entries)
        return list(self._by_category.get(category, ()))

    def iter_entries(self, category: str | None = None) -> Iterator[TraceEntry]:
        """Lazily iterate entries, optionally restricted to one category."""
        source = self._entries if category is None else self._by_category.get(category, ())
        yield from source

    def count(self, category: str) -> int:
        """Number of entries in a category (O(1) via the per-category index)."""
        bucket = self._by_category.get(category)
        return len(bucket) if bucket is not None else 0

    def last(self, category: str) -> TraceEntry | None:
        """Most recent entry in a category, or ``None`` (O(1))."""
        bucket = self._by_category.get(category)
        return bucket[-1] if bucket else None

    def clear(self) -> None:
        """Drop all recorded entries (hooks stay registered)."""
        self._entries.clear()
        self._by_category.clear()

    def __len__(self) -> int:
        return len(self._entries)
