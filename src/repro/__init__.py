"""repro — reproduction of the DRS network-survivability study.

A. Chowdhury, O. Frieder, P. Luse, P.-J. Wan, *Network Survivability
Simulation of a Commercially Deployed Dynamic Routing System Protocol*,
IPDPS 2000 Workshops, LNCS 1800.

The package layers, bottom to top:

* :mod:`repro.simkit` — deterministic discrete-event simulation kernel,
* :mod:`repro.netsim` — the dual-backplane cluster substrate (hubs, NICs,
  fault injection),
* :mod:`repro.protocols` — host stack: routing tables, forwarding IP layer,
  ICMP, UDP, TCP-lite,
* :mod:`repro.drs` — the Dynamic Routing System protocol (the paper's
  contribution): proactive link monitoring + failover,
* :mod:`repro.baselines` — reactive rerouting, RIP-like distance vector,
  static routing,
* :mod:`repro.analysis` — Equation 1 closed form, Monte Carlo validation,
  proactive-cost model,
* :mod:`repro.cluster` — messaging layer, voice-mail workload, fleet
  failure-log generator,
* :mod:`repro.experiments` — drivers regenerating every figure and table.

Every package re-exports its public names lazily (PEP 562, through
:func:`_lazy_exports` below): importing a package loads nothing else, and
reading a name loads the one module that defines it.

Quickstart::

    from repro import (
        Simulator, build_dual_backplane_cluster, install_stacks,
        DrsConfig, install_drs, success_probability,
    )

    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, n=10)
    stacks = install_stacks(cluster)
    install_drs(cluster, stacks, DrsConfig(sweep_period_s=0.5))
    sim.run(until=2.0)
    cluster.faults.fail("nic3.0")      # kill a NIC...
    sim.run(until=4.0)                  # ...DRS reroutes around it
    print(stacks[0].table.lookup(3))    # -> direct route on network 1

    success_probability(18, 2)          # Equation 1: 0.9900...
"""

import importlib
import sys
from typing import Any, Callable

__version__ = "1.0.0"


def _lazy_exports(
    package: str, exports: dict[str, list[str]]
) -> tuple[list[str], Callable, Callable]:
    """PEP 562 re-exports: what a package ``__init__`` binds instead of eager imports.

    ``exports`` maps each submodule of ``package`` to the public names it
    defines.  Returns ``(__all__, __getattr__, __dir__)``: a name's submodule
    is imported the first time the name is read (the value is then cached on
    the package), so importing a package costs only its own ``__init__``, and
    a submodule is still an attribute of its package without an explicit
    import, as the eager imports made it.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{home[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return list(home), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "simkit": ["Simulator"],
        "netsim": ["build_dual_backplane_cluster"],
        "protocols": ["install_stacks"],
        "drs": ["DrsConfig", "install_drs"],
        "baselines": ["install_reactive", "install_distvector", "install_static_only"],
        "cluster": ["install_messaging"],
        "analysis": [
            "success_probability",
            "success_curve",
            "crossover_n",
            "sweep_time_s",
        ],
        "scenario": ["load_scenario", "run_scenario"],
    },
)
__all__.append("__version__")
