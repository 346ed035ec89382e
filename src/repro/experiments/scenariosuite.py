"""EXP-SCENARIOS — run every shipped scenario and tabulate the outcomes.

A regression sweep over ``examples/scenarios/*.json``: the declarative
specs exercise the whole stack (topology, protocols, workloads, fault
scripts) end to end, and their headline numbers land in one table.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.base import ExperimentResult
from repro.scenario import load_scenario, run_scenario

def _find_scenario_dir() -> Path:
    # editable installs: src/repro/experiments -> repo root/examples/scenarios
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "examples" / "scenarios"
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError("examples/scenarios not found relative to the package")


def run(scenario_dir: str | Path | None = None) -> ExperimentResult:
    """Run every ``*.json`` scenario in the directory."""
    directory = Path(scenario_dir) if scenario_dir is not None else _find_scenario_dir()
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no scenario files in {directory}")
    result = ExperimentResult("scenariosuite")
    rows = []
    for path in paths:
        spec = load_scenario(path)
        report = run_scenario(spec)
        workload_ok = _workload_verdict(report)
        rows.append(
            [
                spec.name,
                spec.protocol_kind,
                spec.workload_kind,
                report.faults_injected,
                report.routing_repairs,
                f"{report.wire_utilization:.2%}",
                workload_ok,
            ]
        )
    result.add_table(
        "suite",
        ["scenario", "protocol", "workload", "faults", "repairs", "utilization", "workload verdict"],
        rows,
        caption=f"All shipped scenarios ({directory})",
    )
    return result


def _workload_verdict(report) -> str:
    metrics = report.workload_metrics
    if "stream messages sent" in metrics:
        sent, got = metrics["stream messages sent"], metrics["stream messages delivered"]
        return f"{got}/{sent} delivered"
    if "voicemail completion rate" in metrics:
        return f"{metrics['voicemail completion rate']:.1%} transfers complete"
    if "mpi job completed" in metrics:
        return "job completed" if metrics["mpi job completed"] else "JOB HUNG"
    return "-"
