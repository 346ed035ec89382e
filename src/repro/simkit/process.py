"""Generator-based cooperative processes.

A :class:`Process` wraps a Python generator that ``yield``\\ s either

* a ``float``/``int`` delay (sleep for that many simulated seconds),
* a :class:`Timeout` (explicit form of the same), or
* a :class:`Signal` (block until another component fires it).

This is the idiom the DRS daemon loop is written in: an infinite generator
alternating probe rounds and sleeps, interruptible via signals when a link
state change demands immediate repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.simkit.errors import SimulationError
from repro.simkit.simulator import Simulator

ProcessGenerator = Generator[Any, Any, Any]


@dataclass
class Timeout:
    """Explicit sleep request: ``yield Timeout(0.25)``."""

    delay: float


class Signal:
    """A one-to-many wakeup primitive.

    Processes block on a signal by yielding it; :meth:`fire` wakes every
    waiter at the current simulation time and passes them ``value``.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Process] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def fire(self, value: Any = None) -> int:
        """Wake all waiters; return how many were woken."""
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._resume(value)
        return len(waiters)


@dataclass
class _ProcState:
    finished: bool = False
    value: Any = None
    error: BaseException | None = None
    watchers: list[Signal] = field(default_factory=list)


class Process:
    """A running generator coupled to a :class:`Simulator`.

    The process starts on the next simulator tick at the current time (so
    constructing one inside an event callback is safe).
    """

    def __init__(self, sim: Simulator, gen: ProcessGenerator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._state = _ProcState()
        self._pending_event = sim.schedule(0.0, self._resume)
        self._interrupted_with: Any = None

    # --------------------------------------------------------------- status
    @property
    def finished(self) -> bool:
        """True once the generator has returned or raised."""
        return self._state.finished

    @property
    def value(self) -> Any:
        """The generator's return value (``None`` until finished)."""
        return self._state.value

    @property
    def error(self) -> BaseException | None:
        """The exception that terminated the process, if any."""
        return self._state.error

    def done_signal(self) -> Signal:
        """Return a signal fired (with the return value) when this process ends."""
        sig = Signal(f"{self.name}.done")
        if self._state.finished:
            # Fire on next tick so the caller can register a waiter first.
            self.sim.schedule(0.0, lambda: sig.fire(self._state.value))
        else:
            self._state.watchers.append(sig)
        return sig

    # ---------------------------------------------------------------- drive
    def _resume(self, value: Any = None) -> None:
        if self._state.finished:
            return
        self._pending_event = None
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except BaseException as exc:  # model bug: surface, don't swallow
            self._finish(error=exc)
            raise
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        # sleeps wake through the bound _resume itself: no closure per sleep
        if isinstance(yielded, (float, int)):
            if yielded < 0:
                self._fail(SimulationError(f"process {self.name!r} yielded negative delay {yielded!r}"))
                return
            self._pending_event = self.sim.schedule(float(yielded), self._resume)
        elif isinstance(yielded, Timeout):
            self._pending_event = self.sim.schedule(yielded.delay, self._resume)
        elif isinstance(yielded, Signal):
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            yielded.done_signal()._add_waiter(self)
        else:
            self._fail(SimulationError(f"process {self.name!r} yielded unsupported {yielded!r}"))

    def _fail(self, exc: BaseException) -> None:
        try:
            self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(value=stop.value)
        except BaseException as err:
            self._finish(error=err)
            raise

    def _finish(self, value: Any = None, error: BaseException | None = None) -> None:
        self._state.finished = True
        self._state.value = value
        self._state.error = error
        for sig in self._state.watchers:
            sig.fire(value)
        self._state.watchers.clear()

    # ---------------------------------------------------------------- admin
    def interrupt(self, value: Any = None) -> None:
        """Wake the process now, cancelling whatever it was waiting on.

        The interrupted ``yield`` expression evaluates to ``value``.
        """
        if self._state.finished:
            return
        if self._pending_event is not None:
            self.sim.cancel(self._pending_event)
            self._pending_event = None
        self.sim.schedule(0.0, lambda: self._resume(value))

    def kill(self) -> None:
        """Terminate the process without running any more of its body."""
        if self._state.finished:
            return
        if self._pending_event is not None:
            self.sim.cancel(self._pending_event)
            self._pending_event = None
        self._gen.close()
        self._finish(value=None)
