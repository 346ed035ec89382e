"""Every routing regime under every workload, pinned.

``data/plugin_matrix.json`` holds, for each pair of a ``ROUTING_PROTOCOLS``
kind and a workload kind, what one small run reported: 4 nodes for 3 s,
``nic1.0`` failed at 1.0 s, each plug-in at its default options, the spec
built through ``from_dict``.  It was recorded before the regimes and
workloads became table rows of one shape, and is the contract that the
plug-ins still do what they did — never re-record it to make a change pass
(``PYTHONPATH=src python tests/scenario/test_plugin_matrix.py`` prints the
rows).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenario import ScenarioSpec, run_scenario
from repro.scenario.spec import ROUTING_PROTOCOLS

PINNED = Path(__file__).parent / "data" / "plugin_matrix.json"
WORKLOAD_KINDS = ("stream", "voicemail", "mpi", "none")
FIELDS = ("workload_metrics", "routing_repairs", "route_changes", "wire_bits", "faults_injected")


def matrix() -> dict[str, dict]:
    """``"<protocol>/<workload>"`` -> the pinned fields of that pair's report."""
    rows = {}
    for protocol in ROUTING_PROTOCOLS:
        for workload in WORKLOAD_KINDS:
            spec = ScenarioSpec.from_dict(
                {
                    "name": f"{protocol}-{workload}",
                    "nodes": 4,
                    "duration_s": 3.0,
                    "protocol": {"kind": protocol},
                    "workload": {"kind": workload},
                    "faults": [{"at": 1.0, "fail": "nic1.0"}],
                }
            )
            report = run_scenario(spec)
            rows[f"{protocol}/{workload}"] = {name: getattr(report, name) for name in FIELDS}
    return rows


def test_every_regime_under_every_workload_reports_what_it_reported():
    # compared as JSON text: a stream that delivered nothing reports NaN
    pinned = json.loads(PINNED.read_text())
    assert len(pinned) == 20
    assert json.dumps(matrix(), sort_keys=True) == json.dumps(pinned, sort_keys=True)


if __name__ == "__main__":
    print(json.dumps(matrix(), indent=1, sort_keys=True))
