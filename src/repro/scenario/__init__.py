"""Declarative scenario runner: describe a run, get a report.

A *scenario* is a plain dict (typically loaded from JSON) naming a
topology, a routing protocol, a workload, a failure script, and a duration;
:func:`run_scenario` builds the whole stack, drives it, and returns a
:class:`ScenarioReport` with routing, transport, and workload metrics.

This is the operator-facing front door of the library: `repro sim`
wraps it, and the shipped scenario files under ``examples/scenarios/``
reproduce the paper's qualitative claims without writing Python.

Example spec::

    {
      "name": "nic-failure-under-drs",
      "nodes": 8,
      "protocol": {"kind": "drs", "sweep_period_s": 0.5},
      "workload": {"kind": "stream", "src": 0, "dst": 1,
                    "interval_s": 0.1, "message_bytes": 256},
      "faults": [{"at": 10.0, "fail": "nic1.0"},
                  {"at": 25.0, "repair": "nic1.0"}],
      "duration_s": 40.0
    }
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "spec": ["ScenarioSpec", "ScenarioError", "Warmup", "load_scenario"],
        "run": ["run_scenario", "ScenarioReport"],
        "cli": ["main"],
    },
)
