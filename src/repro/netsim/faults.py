"""Failure injection over the cluster's component universe.

Three injection styles cover every experiment in the reproduction:

* **Scripted** — :class:`FaultScenario`: a timeline of (time, fail/repair,
  component) actions, used by the protocol integration tests.
* **Exactly-f** — :meth:`FaultInjector.apply_exact_failures`: fail f distinct
  components chosen uniformly at random, which is precisely the conditional
  model behind Equation 1 (see :mod:`repro.analysis.exact`).
* **Lifetime** — :meth:`FaultInjector.start_random_faults`: independent
  exponential time-to-failure / time-to-repair per component.  No
  experiment uses it; the churn soak tests drive DRS with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.netsim.component import Component
from repro.obs.progress import heartbeat
from repro.obs.spans import span_log
from repro.simkit import Process, Simulator, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.netsim.topology import Cluster


def component_universe(cluster: "Cluster") -> list[Component]:
    """The canonical component ordering shared with the analysis model.

    Index 0 and 1 are the two hubs; index ``2 + 2i + j`` is node ``i``'s NIC
    on network ``j``.  :mod:`repro.analysis` counts failure combinations over
    exactly this universe, so the DES cross-validation must use it verbatim.
    """
    comps: list[Component] = [cluster.backplanes[0], cluster.backplanes[1]]
    for node in cluster.nodes:
        comps.append(node.nics[0])
        comps.append(node.nics[1])
    return comps


class FaultAction(enum.Enum):
    """What a scripted scenario step does to its component."""

    FAIL = "fail"
    REPAIR = "repair"


@dataclass(frozen=True)
class FaultEvent:
    """One scripted step: at ``time``, apply ``action`` to ``component_name``."""

    time: float
    action: FaultAction
    component_name: str


@dataclass
class FaultScenario:
    """An ordered failure/repair timeline addressed by component name."""

    events: list[FaultEvent] = field(default_factory=list)

    def fail(self, time: float, component_name: str) -> "FaultScenario":
        """Append a failure step (chainable)."""
        self.events.append(FaultEvent(time, FaultAction.FAIL, component_name))
        return self

    def repair(self, time: float, component_name: str) -> "FaultScenario":
        """Append a repair step (chainable)."""
        self.events.append(FaultEvent(time, FaultAction.REPAIR, component_name))
        return self


class FaultInjector:
    """Applies failures/repairs to a set of named components."""

    def __init__(
        self,
        sim: Simulator,
        components: Iterable[Component],
        trace: TraceRecorder | None = None,
    ) -> None:
        self.sim = sim
        self.trace = trace
        self._spans = span_log(trace) if trace is not None else None
        self._by_name: dict[str, Component] = {}
        self._order: list[Component] = []
        for comp in components:
            if comp.name in self._by_name:
                raise ValueError(f"duplicate component name {comp.name!r}")
            self._by_name[comp.name] = comp
            self._order.append(comp)
        self._lifetime_procs: list[Process] = []

    # ------------------------------------------------------------ addressing
    @property
    def components(self) -> list[Component]:
        """All managed components in registration order."""
        return list(self._order)

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown component {name!r}; have {sorted(self._by_name)}") from None

    # -------------------------------------------------------------- immediate
    def fail(self, name: str) -> None:
        """Fail a component now (opens the incident root span)."""
        comp = self.component(name)
        if comp.fail():
            hb = heartbeat()
            if hb is not None:
                hb.add(0, faults=1)
            if self.trace is not None:
                self.trace.record("fault", component=name, action="fail", kind=comp.kind.value)
                if self._spans.wants():
                    self._spans.incident_begin(name, kind=comp.kind.value)

    def repair(self, name: str) -> None:
        """Repair a component now (closes its incident span, if open)."""
        comp = self.component(name)
        if comp.repair():
            if self.trace is not None:
                self.trace.record("fault", component=name, action="repair", kind=comp.kind.value)
                if self._spans.wants():
                    self._spans.incident_end(name)

    def repair_all(self) -> None:
        """Bring every managed component back up."""
        for comp in self._order:
            if not comp.up:
                self.repair(comp.name)

    # --------------------------------------------------------------- scripted
    def schedule(self, scenario: FaultScenario) -> None:
        """Queue a scripted timeline onto the simulator.

        Fault steps use a negative priority so that within a tick the fault
        lands before protocol activity scheduled at the same instant.
        """
        for ev in scenario.events:
            action = self.fail if ev.action is FaultAction.FAIL else self.repair
            self.sim.schedule_at(ev.time, lambda a=action, n=ev.component_name: a(n), priority=-10)

    # -------------------------------------------------------------- exactly-f
    def apply_exact_failures(self, f: int, rng: np.random.Generator) -> list[Component]:
        """Fail exactly ``f`` distinct components chosen uniformly at random.

        This realizes the paper's conditional survivability model on the live
        simulation.  Returns the failed components.
        """
        n = len(self._order)
        if not 0 <= f <= n:
            raise ValueError(f"cannot fail {f} of {n} components")
        picks = rng.choice(n, size=f, replace=False)
        chosen = [self._order[int(i)] for i in picks]
        for comp in chosen:
            self.fail(comp.name)
        return chosen

    # --------------------------------------------------------------- lifetime
    def start_random_faults(
        self,
        rng: np.random.Generator,
        mtbf_s: float,
        mttr_s: float,
        components: Sequence[Component] | None = None,
    ) -> list[Process]:
        """Run an exponential fail/repair lifecycle on each component.

        Each component independently stays up for Exp(mtbf) and down for
        Exp(mttr).  Returns the per-component lifecycle processes.
        """
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")
        targets = list(components) if components is not None else list(self._order)

        def lifecycle(comp: Component):
            while True:
                yield float(rng.exponential(mtbf_s))
                self.fail(comp.name)
                yield float(rng.exponential(mttr_s))
                self.repair(comp.name)

        procs = [Process(self.sim, lifecycle(c), name=f"faults.{c.name}") for c in targets]
        self._lifetime_procs.extend(procs)
        return procs

    def stop_random_faults(self) -> None:
        """Kill all running lifecycle processes."""
        for proc in self._lifetime_procs:
            proc.kill()
        self._lifetime_procs.clear()
