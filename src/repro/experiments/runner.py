"""``repro run``: regenerate every paper artifact.

Usage::

    repro run                      # run everything into ./results
    repro run figure2 crossovers   # a subset
    repro run --quick              # reduced iteration counts
    repro run --quick --jobs 4     # sweeps fan out over 4 processes
    repro run --out /tmp/results
    repro run --resume results     # pick up an interrupted run
    repro run --quick --target-ci 0.01         # adaptive: stop each MC cell at
                                               # Wilson half-width 0.01
    repro run --backend distributed --jobs 2   # TCP coordinator + 2 local workers
    repro run --backend distributed --jobs 0 \
        --coordinator 0.0.0.0:7077    # wait for remote repro worker joins

The experiments come from the declarative registry in :mod:`repro.engine`:
one :class:`~repro.engine.ExperimentSpec` per row of the ``EXPERIMENTS``
table in :mod:`repro.experiments`, with ``quick``/``full`` parameter
profiles; ``--list`` reads the table alone, and a run imports only the
driver module it runs.  Sweep-style experiments decompose into independent
jobs with deterministic spawned seeds — so ``--jobs N`` changes wall time,
never results.

Sweep experiments run fault-tolerant by default: each job gets
``--retries`` attempts beyond the first (exponential backoff, deterministic
jitter), an optional ``--job-timeout`` wall-clock budget per attempt, and
jobs that exhaust the budget are quarantined — the run completes with
partial results and the manifest names them.  Completed jobs stream into
``<out>/<name>.checkpoint.jsonl`` (crash-safe); after an interruption,
``--resume <out>`` replays the original invocation (recorded in
``<out>/run.json``) and re-runs only the jobs the checkpoint is missing —
final CSVs are byte-identical to an uninterrupted run.

Every experiment also writes a run manifest (``<name>.manifest.json``) and a
metrics snapshot (``<name>.metrics.jsonl`` + ``.prom``) next to its results,
so ``results/`` directories are reproducible and diffable; disable with
``--no-metrics``.  Manifests record the engine backend, worker count,
per-job seeds, and the fault-tolerance tallies (attempts, retries,
quarantined/timed-out/resumed job names).  ``repro obs results/``
pretty-prints the artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.engine import Checkpoint, PlanInterrupted, RetryPolicy, experiment_specs, make_executor
from repro.engine.checkpoint import CheckpointVersionError
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    ensure_core_metrics,
    install_profiling,
    use_registry,
    write_metrics_files,
)
from repro.obs.artifacts import atomic_write_text
from repro.obs.flightrecorder import FLIGHT_SUFFIX, FlightRecorder, set_flight_recorder
from repro.obs.progress import ProgressReporter, set_heartbeat

#: Fields of the original invocation that ``--resume`` must replay to
#: reproduce the same plans, seeds, and policy (``--jobs``, ``--backend``,
#: and ``--coordinator`` are deliberately absent: worker count and execution
#: backend are machine-local and never affect values, so a run started
#: distributed can resume serial and vice versa).
RUN_STATE_FIELDS = (
    "names",
    "quick",
    "seed",
    "retries",
    "job_timeout",
    "no_checkpoint",
    "target_ci",
    "topology",
    "mc_method",
)

RUN_STATE_VERSION = 1


def _write_run_state(out_dir: Path, args: argparse.Namespace) -> None:
    state = {"schema": RUN_STATE_VERSION}
    state.update({f: getattr(args, f) for f in RUN_STATE_FIELDS})
    atomic_write_text(out_dir / "run.json", json.dumps(state, indent=2, sort_keys=True) + "\n")


#: the engine tallies a run manifest records as ``fault_tolerance``
FAULT_TOLERANCE = (
    "attempts", "retries", "quarantined", "timed_out", "resumed", "pool_respawns", "hosts",
)


def _write_manifest(
    args, spec, executor, out_dir: Path, metrics, recorder, engine, **fields
) -> None:
    """Write one experiment's manifest and metrics snapshot (unless ``--no-metrics``).

    ``engine`` is what the engine tallied: a finished result's
    ``meta["engine"]``, an interrupted plan's ``PlanExecution``, or None.
    ``fields`` are the manifest fields a finished and an interrupted run
    record differently.
    """
    if args.no_metrics:
        return
    fault = None
    if engine:
        read = engine.get if isinstance(engine, dict) else lambda key: getattr(engine, key)
        fault = {}
        for key in FAULT_TOLERANCE:
            value = read(key)
            if key != "hosts" or value:  # per-host attribution: distributed runs only
                fault[key] = sorted(value) if isinstance(value, list) else value
    RunManifest.build(
        name=spec.name,
        kind="experiment",
        event_count=int(metrics.counter("sim_events_total").value),
        backend=executor.name if spec.parallel else "direct",
        workers=executor.workers if spec.parallel else 1,
        fault_tolerance=fault,
        flight_recorder=recorder.summary() if recorder is not None else None,
        **fields,
    ).write(out_dir / f"{spec.name}.manifest.json")
    write_metrics_files(metrics, out_dir, spec.name)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Regenerate the figures and tables of the DRS survivability paper.",
    )
    parser.add_argument("names", nargs="*", help="experiments to run (default: all)")
    parser.add_argument("--out", default="results", help="output directory (default: ./results)")
    parser.add_argument("--quick", action="store_true", help="reduced iteration counts")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep experiments (1 = serial, 0 = all cores); "
        "with --backend distributed: local repro worker processes to spawn "
        "(0 = none, rely on external workers joining)",
    )
    parser.add_argument(
        "--backend",
        choices=("local", "distributed"),
        default="local",
        help="execution backend for sweep experiments: local (serial or process "
        "pool, the default) or distributed (TCP coordinator + repro worker fleet)",
    )
    parser.add_argument(
        "--coordinator",
        default=None,
        metavar="HOST:PORT",
        help="bind address for --backend distributed (default 127.0.0.1:0 = "
        "loopback, ephemeral port; use 0.0.0.0:PORT to accept remote workers)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="SEED",
        help="override every seed-taking experiment's root seed",
    )
    parser.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help="restrict topology-aware experiments to one family, e.g. "
        "'khub:hubs=3' or 'fattree2:leaves=4,spines=2' (see docs/topology.md)",
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="W",
        help="adaptive stopping: run each Monte Carlo cell until its Wilson CI "
        "half-width reaches W (experiments that support it)",
    )
    parser.add_argument(
        "--mc-method",
        choices=("crn", "stratified", "stratified-cv"),
        default=None,
        metavar="METHOD",
        help="Monte Carlo estimator for experiments that support it: crn "
        "(plain common-random-numbers sweep), stratified (hub-state "
        "stratification), or stratified-cv (stratification plus the "
        "endpoint-dead control variate; see docs/model.md section 11)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="per-job retry budget beyond the first attempt (default 2)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget for each sweep job (default: unlimited)",
    )
    parser.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="skip the crash-safe <name>.checkpoint.jsonl stream (disables --resume)",
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="resume an interrupted run: replay DIR/run.json, skip checkpointed jobs",
    )
    parser.add_argument("--html", action="store_true", help="also write a combined results/index.html")
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip per-experiment manifest + metrics snapshot artifacts",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="progress heartbeat interval on stderr (0 disables; default 10)",
    )
    parser.add_argument(
        "--no-flight",
        action="store_true",
        help="skip the <name>.flight.jsonl engine telemetry stream",
    )
    args = parser.parse_args(argv)
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.target_ci is not None and not args.target_ci > 0:
        parser.error(f"--target-ci must be positive, got {args.target_ci}")
    if args.job_timeout is not None and not args.job_timeout > 0:
        parser.error(f"--job-timeout must be positive, got {args.job_timeout}")
    if args.topology is not None:
        from repro.topology import parse_topology_spec

        try:
            parse_topology_spec(args.topology)
        except ValueError as exc:
            parser.error(f"--topology: {exc}")

    if args.resume is not None:
        if args.names or args.seed is not None or args.quick or args.topology is not None:
            parser.error("--resume replays the original invocation; don't combine it with "
                         "experiment names, --quick, --seed, or --topology")
        resume_dir = Path(args.resume)
        run_json = resume_dir / "run.json"
        try:
            state = json.loads(run_json.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--resume needs the run.json a previous run wrote into DIR: {exc}")
        found = state.get("schema") if isinstance(state, dict) else None
        if found != RUN_STATE_VERSION:
            parser.error(f"--resume: {run_json} records run state version {found!r}; "
                         f"this repro takes version {RUN_STATE_VERSION}")
        for field in RUN_STATE_FIELDS:
            if field in state:
                setattr(args, field, state[field])
        args.out = str(resume_dir)
        if args.no_checkpoint:
            parser.error("the original run used --no-checkpoint; nothing to resume from")

    specs = experiment_specs()
    registry = {spec.name: spec for spec in specs}
    if args.list:
        for spec in specs:
            print(f"{spec.name:14s} {spec.description}" if spec.description else spec.name)
        return 0
    names = args.names or list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}; have {', '.join(registry)}")
    policy = RetryPolicy(max_attempts=args.retries + 1, timeout_s=args.job_timeout)
    try:
        executor = make_executor(
            args.jobs, policy=policy, backend=args.backend, coordinator=args.coordinator
        )
    except ValueError as exc:
        parser.error(str(exc))

    profile = "quick" if args.quick else "full"
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_state(out_dir, args)
    results = []
    if not args.no_metrics:
        # Profile every simulator the experiments build internally; each
        # run() publishes into whichever registry is current at the time.
        install_profiling()
    for name in names:
        spec = registry[name]
        kwargs = spec.kwargs(profile)
        if args.seed is not None and spec.accepts_seed:
            kwargs["seed"] = args.seed
        if args.target_ci is not None and spec.accepts("target_ci"):
            kwargs["target_ci"] = args.target_ci
        if args.topology is not None and spec.accepts("topologies"):
            kwargs["topologies"] = (args.topology,)
        if args.mc_method is not None and spec.accepts("mc_method"):
            kwargs["mc_method"] = args.mc_method
        if spec.parallel:
            kwargs["executor"] = executor
            if not args.no_checkpoint:
                kwargs["checkpoint"] = Checkpoint(out_dir / f"{name}.checkpoint.jsonl")
        started = time.perf_counter()
        print(f"[repro run] running {name} ...", flush=True)
        metrics = ensure_core_metrics(MetricsRegistry())
        reporter = ProgressReporter(name, interval_s=args.heartbeat) if args.heartbeat > 0 else None
        set_heartbeat(reporter)
        recorder = None
        if not args.no_flight:
            # a resumed run's events follow the interrupted run's in one stream
            recorder = FlightRecorder(
                out_dir / f"{name}{FLIGHT_SUFFIX}", experiment=name, append=args.resume is not None
            )
            set_flight_recorder(recorder)
        interrupt: BaseException | None = None
        try:
            with use_registry(metrics):
                result = spec.run(**kwargs)
        except (PlanInterrupted, KeyboardInterrupt) as exc:
            interrupt = exc
        except CheckpointVersionError as exc:
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return 1
        finally:
            set_heartbeat(None)
            if recorder is not None:
                set_flight_recorder(None)
                recorder.close()
        if interrupt is not None:
            # Ctrl-C: what the executor settled is already checkpointed, so
            # record the run as interrupted (with the partial tallies, when
            # the executor handed them back) and exit 128+SIGINT, as a shell
            # would; --resume then re-runs only what is missing
            elapsed = time.perf_counter() - started
            execution = getattr(interrupt, "execution", None)
            done = len(execution.values) if execution is not None else None
            _write_manifest(args, spec, executor, out_dir, metrics, recorder, execution,
                            seed=None, config={"quick": args.quick}, wall_seconds=elapsed,
                            status="interrupted", completed_jobs=done)
            print(
                f"[repro run] {name} interrupted after {elapsed:.1f}s ({done or 0} job(s) "
                f"checkpointed); resume with: repro run --resume {out_dir}",
                file=sys.stderr,
                flush=True,
            )
            return 130
        results.append(result)
        files = result.write(out_dir)
        elapsed = time.perf_counter() - started
        engine_meta = result.meta.get("engine") if isinstance(result.meta, dict) else None
        _write_manifest(args, spec, executor, out_dir, metrics, recorder, engine_meta,
                        seed=result.meta.get("seed"), config={"quick": args.quick, **result.meta},
                        wall_seconds=elapsed,
                        heartbeat=reporter.summary() if reporter is not None else None)
        print(result.render())
        if engine_meta and engine_meta.get("quarantined"):
            print(
                f"[repro run] WARNING: {name} quarantined "
                f"{len(engine_meta['quarantined'])} job(s): "
                f"{', '.join(engine_meta['quarantined'])}",
                file=sys.stderr,
                flush=True,
            )
        print(f"[repro run] {name} done in {elapsed:.1f}s -> {files[0]}", flush=True)
    if args.html:
        from repro.experiments.base import write_html_index

        index = write_html_index(results, out_dir)
        print(f"[repro run] combined report -> {index}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
