"""Exception hierarchy for the simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled strictly before the current simulation time."""

    def __init__(self, now: float, when: float) -> None:
        super().__init__(f"cannot schedule at t={when!r}: simulation time is already t={now!r}")
        self.now = now
        self.when = when
