"""``repro obs``: inspect observability artifacts.

Usage::

    repro obs results/                 # everything in a directory
    repro obs results/figure2.manifest.json
    repro obs --json /tmp/r/figure2.flight.jsonl
    repro obs export-trace /tmp/r/nic-failure-drs.trace.jsonl
    repro obs export-trace /tmp/r/figure2.flight.jsonl
    repro obs postmortem examples/scenarios/voicemail_hub_outage.json
    repro obs watch /tmp/r/figure2.flight.jsonl
    repro obs precision /tmp/r/figure2.flight.jsonl

The bare form dispatches on artifact suffix: ``*.manifest.json`` (run
provenance), ``*.metrics.jsonl`` / ``*.metrics.prom`` (registry snapshots),
``*.trace.jsonl`` (event traces, summarized by category),
``*.checkpoint.jsonl`` (resume records), and ``*.flight.jsonl`` (engine
flight-recorder streams).  ``--json`` swaps every pretty table for one
machine-readable JSON document.  Four verbs:

* ``export-trace`` — convert a trace, a flight-recorder stream, or a
  scenario spec to Chrome trace-event JSON loadable in Perfetto /
  ``chrome://tracing`` (flight streams get one track per worker plus a
  scheduler track).
* ``postmortem`` — reconstruct each failure's detection→repair critical
  path and score it against the TCP-retransmit deadline budget.
* ``watch`` — live ANSI dashboard tailing a ``*.flight.jsonl`` stream
  while (or after) an engine run writes it.
* ``precision`` — sweep-quality report over a run's per-cell Wilson
  intervals: worst cells, per-f target attainment, and trials saved versus
  a fixed-count run.  Reads ``stats.cell`` events from a ``*.flight.jsonl``
  stream or the precision block of a ``*.manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Any, Callable

from repro.obs.artifacts import load_manifest
from repro.obs.flightrecorder import FLIGHT_SUFFIX, flight_summary, read_flight_events, read_jsonl
from repro.obs.watch import WatchState, follow
from repro.viz import metrics_summary_table, render_table


def _render_manifest(path: Path) -> str:
    manifest = load_manifest(path)
    rows = [
        ["name", manifest.name],
        ["kind", manifest.kind],
        ["seed", manifest.seed if manifest.seed is not None else "-"],
        ["config hash", manifest.config_hash],
        ["wall seconds", manifest.wall_seconds],
        ["event count", manifest.event_count],
        ["package version", manifest.package_version],
        ["python", manifest.python],
        ["schema version", manifest.schema_version],
    ]
    for key, value in sorted(manifest.extra.items()):
        rows.append([key, value])
    config = json.dumps(manifest.config, sort_keys=True, default=str)
    if len(config) > 100:
        config = config[:97] + "..."
    rows.append(["config", config])
    return render_table(["field", "value"], rows, title=f"manifest: {path.name}")


def _render_metrics_jsonl(path: Path) -> str:
    return metrics_summary_table(read_jsonl(path), title=f"metrics: {path.name}")


def _render_prometheus(path: Path) -> str:
    return f"prometheus snapshot: {path.name}\n{path.read_text().rstrip()}"


def _trace_tally(path: Path) -> dict[str, dict[str, float]]:
    tally: TallyCounter = TallyCounter()
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    for row in read_jsonl(path):
        category = row.get("category", "?")
        tally[category] += 1
        t = float(row.get("time", 0.0))
        first.setdefault(category, t)
        last[category] = t
    return {
        category: {"entries": count, "first_s": first[category], "last_s": last[category]}
        for category, count in tally.items()
    }


def _render_trace_jsonl(path: Path) -> str:
    by_category = _trace_tally(path)
    rows = [
        [category, stats["entries"], stats["first_s"], stats["last_s"]]
        for category, stats in sorted(by_category.items(), key=lambda kv: -kv[1]["entries"])
    ]
    if not rows:
        return f"trace: {path.name}: (empty)"
    return render_table(
        ["category", "entries", "first (s)", "last (s)"], rows, title=f"trace: {path.name}"
    )


def _checkpoint_rows(path: Path) -> list[dict[str, Any]]:
    return [
        {
            "experiment": row.get("experiment", "?"),
            "job": row.get("job", "?"),
            "attempts": int(row.get("attempts", 1)),
            "elapsed_s": float(row.get("elapsed_s", 0.0)),
        }
        for row in read_jsonl(path)
    ]


def _render_checkpoint_jsonl(path: Path) -> str:
    rows = _checkpoint_rows(path)
    if not rows:
        return f"checkpoint: {path.name}: (empty)"
    total_attempts = sum(r["attempts"] for r in rows)
    title = f"checkpoint: {path.name} ({len(rows)} job(s), {total_attempts} attempt(s))"
    return render_table(
        ["experiment", "job", "attempts", "elapsed (s)"],
        [[r["experiment"], r["job"], r["attempts"], f"{r['elapsed_s']:.3f}"] for r in rows],
        title=title,
    )


def _render_flight_jsonl(path: Path) -> str:
    events = read_flight_events(path)
    if not events:
        return f"flight: {path.name}: (empty)"
    summary = flight_summary(events)
    rows = [[kind, count] for kind, count in sorted(summary["by_kind"].items())]
    for pid, info in sorted(summary["workers"].items()):
        rows.append([f"worker pid {pid}", f"{info['jobs']} job(s)"])
    wall = WatchState().apply_all(events).elapsed_s
    title = f"flight: {path.name} ({summary['events']} event(s), {wall:.1f}s wall)"
    return render_table(["event kind / worker", "count"], rows, title=title)


#: the one suffix dispatch: suffix -> (kind, ``--json`` payload of a path, pretty form of a path)
ARTIFACTS: dict[str, tuple[str, Callable[[Path], Any], Callable[[Path], str]]] = {
    ".manifest.json": ("manifest", lambda path: load_manifest(path).to_dict(), _render_manifest),
    ".metrics.jsonl": ("metrics", read_jsonl, _render_metrics_jsonl),
    ".metrics.prom": ("prometheus", lambda path: {"text": path.read_text()}, _render_prometheus),
    ".trace.jsonl": ("trace", lambda path: {"categories": _trace_tally(path)}, _render_trace_jsonl),
    ".checkpoint.jsonl": (
        "checkpoint", lambda path: {"jobs": _checkpoint_rows(path)}, _render_checkpoint_jsonl,
    ),
    FLIGHT_SUFFIX: (
        "flight", lambda path: flight_summary(read_flight_events(path)), _render_flight_jsonl,
    ),
}

ARTIFACT_GLOBS = tuple(f"*{suffix}" for suffix in ARTIFACTS)


def _artifact(path: Path) -> tuple[str, Callable[[Path], Any], Callable[[Path], str]]:
    for suffix, entry in ARTIFACTS.items():
        if path.name.endswith(suffix):
            return entry
    raise ValueError(f"unrecognized artifact {path} (expected {', '.join(ARTIFACT_GLOBS)})")


def render_artifact(path: Path) -> str:
    """Pretty-print one artifact file by suffix."""
    return _artifact(path)[2](path)


def artifact_data(path: Path) -> dict[str, Any]:
    """Machine-readable form of one artifact: ``{path, kind, data}``.

    The ``--json`` counterpart of :func:`render_artifact` — same suffix
    dispatch, JSON-native payloads instead of tables.
    """
    kind, data, _ = _artifact(path)
    return {"path": str(path), "kind": kind, "data": data(path)}


def _expand(paths: list[str]) -> list[Path]:
    expanded: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for pattern in ARTIFACT_GLOBS:
                expanded.extend(sorted(path.glob(pattern)))
        else:
            expanded.append(path)
    return expanded


def _load_spans(source: str):
    """Spans + instant rows from a trace artifact or a scenario spec.

    A ``*.trace.jsonl`` path is read back offline; any other path is taken
    as a scenario spec JSON, which is run in-process (seeded from the spec)
    and mined for its live span log.
    """
    from repro.obs.spans import load_trace_jsonl, span_log, spans_from_entries

    if source.endswith(".trace.jsonl"):
        rows = load_trace_jsonl(source)
        return spans_from_entries(rows), rows
    from repro.scenario.run import run_scenario
    from repro.scenario.spec import load_scenario

    report = run_scenario(load_scenario(source))
    if report.trace is None:
        raise ValueError(f"scenario {source} ran without a trace recorder")
    return list(span_log(report.trace).spans), report.trace.entries()


def _cmd_export_trace(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs export-trace",
        description="Export spans or a flight-recorder stream as Chrome trace-event JSON "
        "(Perfetto / chrome://tracing).",
    )
    parser.add_argument(
        "source",
        help="a *.trace.jsonl artifact, a *.flight.jsonl flight recording, "
        "or a scenario spec JSON",
    )
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: <source stem>.spans.json, "
                        "or <stem>.chrome.json for flight recordings)")
    args = parser.parse_args(argv)

    if args.source.endswith(FLIGHT_SUFFIX):
        from repro.obs.spans import write_flight_chrome_trace

        events = read_flight_events(args.source)
        if not events:
            print(f"error: {args.source}: no flight events recorded", file=sys.stderr)
            return 1
        out = Path(args.out) if args.out else Path(
            args.source.removesuffix(FLIGHT_SUFFIX) + ".chrome.json"
        )
        write_flight_chrome_trace(out, events)
        workers = len(flight_summary(events)["workers"])
        print(f"wrote {len(events)} flight event(s) ({workers} worker track(s)) -> {out}")
        return 0

    from repro.obs.spans import write_chrome_trace

    spans, instants = _load_spans(args.source)
    if not spans:
        print(f"error: {args.source}: no spans recorded", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(
        args.source.removesuffix(".trace.jsonl").removesuffix(".json") + ".spans.json"
    )
    write_chrome_trace(out, spans, instants)
    print(f"wrote {len(spans)} span(s) -> {out}")
    return 0


def _cmd_postmortem(argv: list[str]) -> int:
    from repro.obs.postmortem import build_postmortems, render_postmortems, summarize_postmortems

    parser = argparse.ArgumentParser(
        prog="repro obs postmortem",
        description="Per-incident detection->repair critical paths vs the TCP-retransmit deadline.",
    )
    parser.add_argument("source", help="a *.trace.jsonl artifact or a scenario spec JSON")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="deadline budget in seconds (default: TCP initial RTO)")
    parser.add_argument("--node", type=int, default=None, metavar="N",
                        help="only report episodes observed by this node")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report instead of tables")
    args = parser.parse_args(argv)

    spans, _ = _load_spans(args.source)
    reports = build_postmortems(spans, deadline_s=args.deadline, node=args.node)
    if args.json:
        print(json.dumps(
            {
                "source": args.source,
                "summary": summarize_postmortems(reports),
                "episodes": [
                    {
                        "node": r.node,
                        "peer": r.peer,
                        "outcome": r.outcome,
                        "failover_latency_s": r.failover_latency_s,
                        "total_s": r.total_s,
                        "deadline_s": r.deadline_s,
                        "budget_consumed": r.budget_consumed,
                        "deadline_violated": r.deadline_violated,
                        "phases": [
                            {"name": p.name, "start": p.start, "end": p.end,
                             "duration": p.duration}
                            for p in r.phases
                        ],
                    }
                    for r in reports
                ],
            },
            indent=2,
        ))
    else:
        print(render_postmortems(reports))
    return 0 if all(not r.deadline_violated for r in reports) else 3


def _cmd_watch(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs watch",
        description="Live dashboard tailing an engine flight-recorder stream.",
    )
    parser.add_argument("path", help="a *.flight.jsonl file (may not exist yet)")
    parser.add_argument("--interval", type=float, default=0.5, metavar="S",
                        help="repaint interval in seconds (default: 0.5)")
    parser.add_argument("--duration", type=float, default=None, metavar="S",
                        help="give up after this many seconds if the run hasn't ended")
    parser.add_argument("--once", action="store_true",
                        help="render the current state once and exit (replay mode)")
    parser.add_argument("--no-color", action="store_true", help="plain-text output")
    parser.add_argument("--json", action="store_true",
                        help="emit state snapshots as JSON lines instead of the dashboard")
    args = parser.parse_args(argv)
    if args.once:
        Path(args.path).stat()  # a replay needs the stream; the live form waits for it

    return follow(
        args.path,
        interval_s=args.interval,
        duration_s=args.duration,
        once=args.once,
        color=not args.no_color,
        as_json=args.json,
    )


def _cmd_precision(argv: list[str]) -> int:
    from repro.obs.precision import (
        cells_from_manifest,
        fold_cells,
        precision_report,
        render_precision_report,
    )

    parser = argparse.ArgumentParser(
        prog="repro obs precision",
        description="Sweep-quality report: per-cell Wilson CI widths, worst cells, "
        "and trials saved vs a fixed-count run.",
    )
    parser.add_argument(
        "source",
        help="a *.flight.jsonl stream (stats.cell events) or a *.manifest.json "
        "run manifest (recorded precision block)",
    )
    parser.add_argument("--target", type=float, default=None, metavar="W",
                        help="judge cells against this half-width instead of the recorded target")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="how many worst cells to list (default: 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report instead of tables")
    args = parser.parse_args(argv)

    source = Path(args.source)
    if source.name.endswith(FLIGHT_SUFFIX):
        cells = list(fold_cells(read_flight_events(source)).values())
    elif source.name.endswith(".manifest.json"):
        cells, _ = cells_from_manifest(load_manifest(source).to_dict())
    else:
        print(
            f"error: {source}: expected a *.flight.jsonl or *.manifest.json artifact",
            file=sys.stderr,
        )
        return 1
    if not cells:
        print(f"error: {source}: no per-cell precision data recorded", file=sys.stderr)
        return 1
    report = precision_report(cells, target=args.target, top=args.top)
    if args.json:
        print(json.dumps({"source": str(source), **report}, indent=2))
    else:
        print(render_precision_report(report, source=source.name))
    return 0


#: ``repro obs <command> ...``; any other first word is an artifact path
COMMANDS = {
    "export-trace": _cmd_export_trace,
    "postmortem": _cmd_postmortem,
    "watch": _cmd_watch,
    "precision": _cmd_precision,
}


def main(argv: list[str]) -> int:
    """Entry point; returns the process exit code."""
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Pretty-print run manifests, metrics snapshots, and trace dumps.",
    )
    parser.add_argument("paths", nargs="+", help="artifact files or results directories")
    parser.add_argument("--raw", action="store_true", help="dump file contents without rendering")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON array of {path, kind, data} records")
    args = parser.parse_args(argv)

    paths = _expand(args.paths)
    if not paths:
        print("no observability artifacts found", file=sys.stderr)
        return 1
    status = 0
    documents: list[dict[str, Any]] = []
    for path in paths:
        if not path.exists():
            print(f"error: {path}: no such file", file=sys.stderr)
            status = 1
            continue
        try:
            if args.json:
                documents.append(artifact_data(path))
            else:
                print(path.read_text().rstrip() if args.raw else render_artifact(path))
                print()
        except (ValueError, json.JSONDecodeError, TypeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            status = 1
    if args.json:
        print(json.dumps(documents, indent=2, default=str))
    return status
