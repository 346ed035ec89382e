"""Event objects and the pending-event priority queue.

Events fire in ``(time, priority, seq)`` order.  The queue-assigned,
monotonically increasing sequence number guarantees stable FIFO ordering
among events that share a timestamp and priority, which is what makes
whole-simulation runs reproducible bit-for-bit under a fixed seed: the
order of ``push`` calls *is* the determinism contract.

A heap entry is the tuple ``(time, priority, seq, event)``, not the event:
``heapq`` then orders entries with C tuple comparison, and because ``seq``
is unique a comparison is always decided before it reaches the fourth
slot — the :class:`Event` itself is never compared.

Cancellation is lazy (the entry stays in the heap, flagged, and is
discarded when it reaches the head).  An event that has been popped or
cleared is *spent*; cancelling a spent event does nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Tie-breaker among same-time events; lower fires first.  Protocol
        code uses the default (0); infrastructure (e.g. fault injection)
        may use negative priorities to act "before" the protocols in a tick.
    seq:
        Queue-assigned sequence number; guarantees FIFO among full ties.
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Lazy-deletion flag; cancelled events stay in the heap but are
        skipped when popped.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: set once the event has been popped live or cleared out of its queue
    _spent: bool = field(default=False, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes."""
        self.cancelled = True


class EventQueue:
    """Binary-heap priority queue of :class:`Event` with lazy deletion."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, callback: Callable[[], Any], priority: int = 0) -> Event:
        """Insert a callback at absolute time ``time`` and return its handle."""
        seq = self._seq
        ev = Event(time, priority, seq, callback)
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (time, priority, seq, ev))
        return ev

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (idempotent; no-op once spent)."""
        if not (event.cancelled or event._spent):
            event.cancelled = True
            self._live -= 1

    def pop_due(self, until: float) -> Event | None:
        """Remove and return the earliest live event if it is due by ``until``.

        Cancelled heads are discarded on the way.  Returns ``None`` when the
        earliest live event lies strictly after ``until`` (it stays queued)
        or when no live event remains; ``math.inf`` means "whatever is next".
        """
        heap = self._heap
        while heap:
            head = heap[0]
            ev = head[3]
            if ev.cancelled:
                heappop(heap)
            elif head[0] > until:
                return None
            else:
                heappop(heap)
                ev._spent = True
                self._live -= 1
                return ev
        return None

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        ev = self.pop_due(inf)
        if ev is None:
            raise IndexError("pop from empty EventQueue")
        return ev

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._spent = True
        self._heap.clear()
        self._live = 0
