"""One workload, once, in a fresh interpreter — the benchmark's unit of load.

``python benchmarks/e2e/child.py <workload> --seed S --out DIR`` makes the
public calls ``repro.experiments.runner.main`` makes for one experiment
(``make_executor``, ``Checkpoint``, ``FlightRecorder``, ``install_profiling``,
a fresh ``MetricsRegistry``, ``spec.run``, ``result.write``, the manifest and
the metrics files) at the workload's scale, then checks the outputs and
prints one JSON object as its last line.  A fresh interpreter because that
is what a ``drs-experiments`` user pays for: first-touch memory and import
cost are invisible from a warm process.

``--telemetry off`` drops the flight recorder, the checkpoint and the
simulator profiler (the run still writes its results, manifest and metrics
files); ``--trace`` records spans around every call made here.
"""

import time

T_START = time.time()  # as early as this file can observe its own start

import argparse
import contextlib
import json
import os
import resource
import sys
from pathlib import Path

from tracing import SpanRecorder
from workloads import BY_NAME, Workload

SRC = Path(__file__).resolve().parents[2] / "src"
#: the CLI's defaults: --retries 2 and --heartbeat 10
RETRY_ATTEMPTS = 3
HEARTBEAT_S = 10.0


def use_checkout_source() -> None:
    """Make ``repro`` importable from this checkout, here and in descendants.

    The distributed backend starts ``python -m repro.engine.worker`` with this
    process's environment, so the path goes into the environment too.
    """
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if str(SRC) not in inherited:
        os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *inherited])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class _Traced:
    """Delegating wrapper that times chosen methods of the wrapped object."""

    def __init__(self, inner, tracer: SpanRecorder, spans: dict[str, str]) -> None:
        self._inner = inner
        self._tracer = tracer
        self._spans = spans

    def __getattr__(self, attr: str):
        value = getattr(self._inner, attr)
        name = self._spans.get(attr)
        if name is None:
            return value

        def timed(*args, **kwargs):
            with self._tracer.span(name):
                return value(*args, **kwargs)

        return timed


class _TracedExecutor(_Traced):
    """Times ``run`` and, inside it, the plan's reduction."""

    def __init__(self, inner, tracer: SpanRecorder) -> None:
        super().__init__(inner, tracer, {})

    def run(self, plan, checkpoint=None):
        reduce = plan.reduce

        def timed_reduce(values):
            with self._tracer.span("experiments.reduce"):
                return reduce(values)

        plan.reduce = timed_reduce
        with self._tracer.span("engine.executor_run"):
            return self._inner.run(plan, checkpoint=checkpoint)


def own_peak_rss_kib() -> int:
    """This process's own high-water RSS in KiB.

    Not ``ru_maxrss``: Linux carries that across ``exec``, so a child starts
    at the size its parent had when it forked - after a traced pass the
    harness holds NumPy and every child would report the harness's 195 MiB.
    ``VmHWM`` belongs to the address space and starts fresh.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rusage_tree() -> dict[str, float]:
    """CPU, faults and peak RSS of this process plus every waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "user_s": own.ru_utime + kids.ru_utime,
        "sys_s": own.ru_stime + kids.ru_stime,
        "minor_faults": own.ru_minflt + kids.ru_minflt,
        "peak_rss_mb": max(own_peak_rss_kib(), kids.ru_maxrss) / 1024.0,  # both in KiB
    }


def run_workload(workload: Workload, seed: int, out: Path, telemetry: bool,
                 tracer: SpanRecorder | None, smoke: bool) -> dict:
    """Drive one experiment the way the CLI does; return the measurements."""

    def span(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    if any(out.iterdir()):
        # an existing <name>.checkpoint.jsonl is reused even without --resume:
        # the run would skip its jobs and measure nothing
        raise SystemExit(f"child: --out {out} is not empty; every rep needs a fresh directory")

    with span("experiments.import"):
        t0 = time.perf_counter()
        import repro.experiments  # noqa: F401 - registers every ExperimentSpec
        from repro.engine import Checkpoint, RetryPolicy, get_spec, make_executor
        from repro.obs import (
            MetricsRegistry,
            RunManifest,
            ensure_core_metrics,
            install_profiling,
            use_registry,
            write_metrics_files,
        )
        from repro.obs.flightrecorder import FLIGHT_SUFFIX, FlightRecorder, set_flight_recorder
        from repro.obs.progress import ProgressReporter, set_heartbeat

        import_s = time.perf_counter() - t0

    name = workload.spec
    spec = get_spec(name)
    kwargs = workload.run_kwargs(smoke)
    run_kwargs = dict(kwargs, seed=seed)

    with span("engine.make_executor"):
        executor = make_executor(
            workload.jobs, policy=RetryPolicy(max_attempts=RETRY_ATTEMPTS), backend=workload.backend
        )
    if telemetry:
        with span("obs.install_profiling"):
            install_profiling()
    started = time.perf_counter()
    if tracer is not None:
        executor = _TracedExecutor(executor, tracer)
    run_kwargs["executor"] = executor
    if telemetry:
        checkpoint = Checkpoint(out / f"{name}.checkpoint.jsonl")
        if tracer is not None:
            checkpoint = _Traced(checkpoint, tracer, {
                "load": "engine.checkpoint_load", "record": "engine.checkpoint_record"})
        run_kwargs["checkpoint"] = checkpoint
    metrics = ensure_core_metrics(MetricsRegistry())
    reporter = ProgressReporter(name, interval_s=HEARTBEAT_S)
    set_heartbeat(reporter)
    recorder = None
    if telemetry:
        with span("obs.flight_open"):
            recorder = FlightRecorder(out / f"{name}{FLIGHT_SUFFIX}", experiment=name)
            set_flight_recorder(recorder)
    try:
        with span("experiments.run"), use_registry(metrics):
            result = spec.run(**run_kwargs)
    finally:
        set_heartbeat(None)
        if recorder is not None:
            set_flight_recorder(None)
            with span("obs.flight_close"):
                recorder.close()
    ran_s = time.perf_counter() - started
    with span("obs.artifact_write"):
        result.write(out)
        elapsed = time.perf_counter() - started
        engine_meta = result.meta["engine"]
        RunManifest.build(
            name=name,
            kind="experiment",
            seed=result.meta.get("seed"),
            config={"quick": False, **result.meta},
            wall_seconds=elapsed,
            event_count=int(metrics.counter("sim_events_total").value),
            heartbeat=reporter.summary(),
            backend=executor.name,
            workers=executor.workers,
            fault_tolerance={
                k: engine_meta[k]
                for k in ("attempts", "retries", "quarantined", "timed_out", "resumed",
                          "pool_respawns", "hosts")
                if k in engine_meta
            },
            flight_recorder=recorder.summary() if recorder is not None else None,
        ).write(out / f"{name}.manifest.json")
        write_metrics_files(metrics, out, name)
    wall_s = time.perf_counter() - started
    usage = rusage_tree()  # before the checks below add their own cost

    # ---- everything from here on is outside the timed region ----
    from checks import CHECKS, check_manifest, csv_digests, load_manifest
    from layers import artifact_metrics

    manifest = load_manifest(out, name)
    fault = manifest["extra"]["fault_tolerance"]
    jobs = engine_meta["jobs"]
    work = {
        "trials": manifest["extra"]["heartbeat"]["trials"],
        "jobs": jobs,
        "events": manifest["event_count"],
    }[workload.work_unit]
    report = {
        "workload": workload.name,
        "seed": seed,
        "import_s": import_s,
        "artifact_write_s": wall_s - ran_s,
        "wall_s": wall_s,
        "rusage": usage,
        "work": work,
        "work_unit": workload.work_unit,
        "jobs": jobs,
        "retries": fault["retries"],
        "quarantined": len(fault["quarantined"]),
        "resumed": len(fault["resumed"]),
        "respawns": fault["pool_respawns"],
        "checks": CHECKS[name](out, kwargs) + check_manifest(manifest),
        "digests": csv_digests(out),
        "artifacts": artifact_metrics(out, name, engine_meta["workers"]) if telemetry else {},
    }
    if tracer is not None:
        from layers import flight_spans

        flight_spans(tracer, out, name)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("--out", required=True, help="fresh, empty output directory")
    parser.add_argument("--telemetry", choices=("default", "off"), default="default")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    use_checkout_source()
    workload = BY_NAME[args.workload]
    tracer = SpanRecorder(workload.name) if args.trace else None
    with tracer.span("child") if tracer is not None else contextlib.nullcontext():
        report = run_workload(workload, args.seed, out, args.telemetry == "default",
                              tracer, args.smoke)
    if tracer is not None:
        tracer.spans[0]["start"] = T_START  # the root span covers interpreter start-up too
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
