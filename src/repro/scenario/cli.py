"""``repro sim``: run scenario files from the command line.

Usage::

    repro sim examples/scenarios/nic_failure_drs.json
    repro sim --compare examples/scenarios/nic_failure_*.json
    repro sim --metrics-out /tmp/obs examples/scenarios/nic_failure_drs.json

``--metrics-out DIR`` writes, per scenario, a run manifest plus metrics
snapshots (JSONL + Prometheus text), the event trace as JSONL, and — when
the run recorded causal spans — a ``<name>.spans.json`` Chrome trace-event
file loadable in Perfetto.  Inspect them with ``repro obs DIR``; rebuild
the span views offline with ``repro obs export-trace`` / ``postmortem``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import sys
import time
from pathlib import Path

from repro.obs import (
    MetricsRegistry,
    RunManifest,
    ensure_core_metrics,
    install_profiling,
    write_metrics_files,
    write_trace_jsonl,
)
from repro.obs.spans import span_log, write_chrome_trace
from repro.scenario.run import run_scenario
from repro.scenario.spec import ScenarioError, ScenarioSpec
from repro.viz import render_table


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro sim",
        description="Run declarative DRS cluster scenarios (JSON specs).",
    )
    parser.add_argument("scenarios", nargs="+", help="scenario JSON files")
    parser.add_argument(
        "--compare",
        action="store_true",
        help="render one side-by-side table instead of per-scenario reports",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        default=None,
        help="write per-scenario manifest, metrics snapshot, and trace JSONL here",
    )
    args = parser.parse_args(argv)

    obs_dir = Path(args.metrics_out) if args.metrics_out else None
    if obs_dir is not None:
        install_profiling()

    reports = []
    for path in args.scenarios:
        metrics = ensure_core_metrics(MetricsRegistry())
        started = time.perf_counter()
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            # input that is not JSON is unreadable, like a missing file
            raise OSError(errno.EINVAL, f"invalid JSON: {exc}", path) from exc
        try:
            spec = ScenarioSpec.from_dict(raw)
            report = run_scenario(spec, metrics=metrics)
        except ScenarioError as exc:
            print(f"{parser.prog}: error: {path}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        if obs_dir is not None:
            manifest = RunManifest.build(
                name=spec.name,
                kind="scenario",
                seed=spec.seed,
                config=dataclasses.asdict(spec),
                wall_seconds=time.perf_counter() - started,
                event_count=int(metrics.counter("sim_events_total").value),
                source=str(path),
            )
            obs_dir.mkdir(parents=True, exist_ok=True)
            manifest.write(obs_dir / f"{spec.name}.manifest.json")
            write_metrics_files(metrics, obs_dir, spec.name)
            if report.trace is not None:
                write_trace_jsonl(report.trace, obs_dir / f"{spec.name}.trace.jsonl")
                spans = span_log(report.trace).spans
                if spans:
                    write_chrome_trace(
                        obs_dir / f"{spec.name}.spans.json", spans, report.trace.entries()
                    )
        if not args.compare:
            print(report.render())
            print()

    if args.compare:
        workload_keys = sorted({k for r in reports for k in r.workload_metrics})
        headers = ["metric"] + [r.spec.name for r in reports]
        rows: list[list] = [
            ["routing repairs"] + [r.routing_repairs for r in reports],
            ["route changes"] + [r.route_changes for r in reports],
            ["mean segment utilization"] + [r.wire_utilization for r in reports],
        ]
        for key in workload_keys:
            rows.append([key] + [r.workload_metrics.get(key, "-") for r in reports])
        print(render_table(headers, rows, title="scenario comparison"))
    return 0
