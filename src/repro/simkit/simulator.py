"""The simulation event loop.

One queue call per fired event: :meth:`Simulator.run` asks
:meth:`~repro.simkit.events.EventQueue.pop_due` for the next live event due
by ``until``, sets the clock, and calls back.  Scheduling is one range check
(``now <= when < inf``, which NaN fails) and one ``push``; the sequence
number ``push`` assigns is the tie-breaker, so the order of ``schedule``
calls is the determinism contract.  With profiling on, the same loop times
each callback and files it under its defining module's category — one dict
lookup per event, totals written once per ``run``.
"""

from __future__ import annotations

from math import inf
from time import perf_counter
from typing import Any, Callable

from repro.simkit.errors import ScheduleInPastError
from repro.simkit.events import Event, EventQueue


class SimProfile:
    """Wall-clock accounting of one simulator's event loop.

    Tracks events fired, callback time by category (the defining module of
    each callback), and total time inside :meth:`run`, from which events/sec
    falls out.  ``drain_deltas`` supports incremental
    publication into a metrics registry across repeated ``run`` calls.
    """

    __slots__ = ("events", "callback_seconds", "run_seconds", "by_category", "_published")

    def __init__(self) -> None:
        self.events = 0
        self.callback_seconds = 0.0
        self.run_seconds = 0.0
        #: category -> [events, callback seconds]
        self.by_category: dict[str, list] = {}
        self._published = [0, 0.0, 0.0, {}]

    def drain_deltas(self) -> dict[str, Any]:
        """What changed since the last drain (for incremental publication)."""
        pub_events, pub_cb, pub_run, pub_cat = self._published
        deltas = {
            "events": self.events - pub_events,
            "callback_seconds": self.callback_seconds - pub_cb,
            "run_seconds": self.run_seconds - pub_run,
            "by_category": {},
        }
        for category, (n, secs) in self.by_category.items():
            seen_n, seen_s = pub_cat.get(category, (0, 0.0))
            if n != seen_n or secs != seen_s:
                deltas["by_category"][category] = (n - seen_n, secs - seen_s)
        self._published = [
            self.events,
            self.callback_seconds,
            self.run_seconds,
            {c: tuple(v) for c, v in self.by_category.items()},
        ]
        return deltas

    def summary_rows(self) -> list[list]:
        """Per-category rows (category, events, seconds, share) for tables."""
        total = self.callback_seconds or 1.0
        rows = [
            [category, n, secs, secs / total]
            for category, (n, secs) in sorted(
                self.by_category.items(), key=lambda kv: kv[1][1], reverse=True
            )
        ]
        return rows


def _categorize(callback: Callable[[], Any]) -> str:
    module = getattr(callback, "__module__", None)
    if module is None:
        func = getattr(callback, "func", None)  # functools.partial
        module = getattr(func, "__module__", None)
    return module.rsplit(".", 1)[-1] if module else "uncategorized"


#: when True, every new Simulator starts with profiling enabled and reports
#: into _PROFILE_SINK after each run() — set by repro.obs, never imported here
_AUTO_PROFILE = False
_PROFILE_SINK: Callable[[SimProfile], None] | None = None


def set_auto_profile(enabled: bool, sink: Callable[[SimProfile], None] | None = None) -> None:
    """Globally profile every subsequently created :class:`Simulator`.

    ``sink`` (if given) is invoked with the profile after each ``run()``;
    the observability layer uses this to publish into the current metrics
    registry without simkit depending on it.
    """
    global _AUTO_PROFILE, _PROFILE_SINK
    _AUTO_PROFILE = enabled
    _PROFILE_SINK = sink if enabled else None


class Simulator:
    """Deterministic discrete-event simulator.

    The simulator owns the clock and the pending-event queue.  All model
    components (NICs, hubs, protocol daemons) schedule work through it and
    never advance time themselves.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._stopped = False
        self._profile: SimProfile | None = SimProfile() if _AUTO_PROFILE else None

    # -------------------------------------------------------------- profiling
    @property
    def profile(self) -> SimProfile | None:
        """Event-loop accounting, or ``None`` while profiling is off."""
        return self._profile

    def enable_profiling(self) -> SimProfile:
        """Start (or continue) wall-clock accounting of the event loop.

        Callbacks are bucketed by their defining module (``icmp``,
        ``monitor``, ...).
        """
        if self._profile is None:
            self._profile = SimProfile()
        return self._profile

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callable[[], Any], priority: int = 0) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Raises :class:`ScheduleInPastError` like :meth:`schedule_at`.
        """
        when = self._now + delay
        if not self._now <= when < inf:  # NaN fails every comparison
            raise ScheduleInPastError(self._now, when)
        return self._queue.push(when, callback, priority)

    def schedule_at(self, when: float, callback: Callable[[], Any], priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute time ``when``.

        Raises
        ------
        ScheduleInPastError
            If ``when`` is before the current time or not a finite number.
        """
        if not self._now <= when < inf:  # NaN fails every comparison
            raise ScheduleInPastError(self._now, when)
        return self._queue.push(when, callback, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        Safe to call twice, and on an event that has already fired: a spent
        event is left alone and nothing else is dropped.
        """
        self._queue.cancel(event)

    # ------------------------------------------------------------------- run
    def _fire(self, horizon: float, budget: float) -> int:
        """Fire live events in order; return how many fired.

        Stops once ``budget`` events have fired (checked before each pop),
        when nothing live is due by ``horizon``, or after a callback that
        called :meth:`stop`.  With profiling on, each callback is timed and
        filed under its category; the row is remembered per defining module
        for the rest of this call, and the totals are written once.
        """
        pop_due = self._queue.pop_due
        prof = self._profile
        rows: dict[str, list] = {}
        seconds = 0.0
        fired = 0
        try:
            while fired < budget:
                ev = pop_due(horizon)
                if ev is None:
                    break
                self._now = ev.time
                callback = ev.callback
                if prof is None:
                    callback()
                else:
                    started = perf_counter()
                    callback()
                    elapsed = perf_counter() - started
                    module = getattr(callback, "__module__", None)
                    row = rows.get(module)
                    if row is None:
                        row = prof.by_category.setdefault(_categorize(callback), [0, 0.0])
                        if module is not None:
                            rows[module] = row
                    row[0] += 1
                    row[1] += elapsed
                    seconds += elapsed
                fired += 1
                if self._stopped:
                    break
        finally:
            if prof is not None:
                prof.events += fired
                prof.callback_seconds += seconds
        return fired

    def step(self) -> bool:
        """Fire the single earliest event.  Return ``False`` if none remain."""
        return self._fire(inf, 1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or event budget spent.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this time, and advance the clock exactly to ``until``.
        max_events:
            Safety valve for runaway models; stop after firing this many.
            A budget spent with events still queued leaves the clock at the
            last fired event.
        """
        self._stopped = False
        budget = inf if max_events is None else max_events
        prof = self._profile
        run_started = perf_counter() if prof is not None else 0.0
        try:
            fired = self._fire(inf if until is None else until, budget)
            if until is None or self._stopped:
                return
            if not self._queue:  # drained
                if self._now < until:
                    self._now = until
            elif fired < budget:  # the next live event lies beyond until
                self._now = until
        finally:
            if prof is not None:
                prof.run_seconds += perf_counter() - run_started
                if _PROFILE_SINK is not None:
                    _PROFILE_SINK(prof)

    def stop(self) -> None:
        """Stop :meth:`run` after the currently firing event returns."""
        self._stopped = True
