"""Layered end-to-end benchmark of the DRS reproduction: the one command.

Two ways in, one measuring procedure:

``python benchmarks/e2e/run.py [--seed S] [--reps K] [--trace] [--smoke] [--aa]``
    every workload, K reps each, interleaved round-robin (w1..w8, w1..w8, ...),
    then (``--trace``) one traced pass per workload; prints every metric by
    name with its unit, checks the outputs, exits non-zero if a check fails.

``python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    the form the benchmark driver calls: one workload, as many reps as fit
    in S seconds; the last line of standard output is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The load is closed-loop with one client: each rep is a fresh interpreter
(``child.py``) that this process starts only after the previous one exited,
and waits for.  Nothing under ``src/`` is touched; see README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from child import SRC, use_checkout_source
from estimators import summarize, worsening
from names import END_TO_END, PER_LAYER, PER_LAYER_NAMES, UNITS
from tracing import SpanRecorder, merge_spans, self_time_by_name, write_chrome_trace
from workloads import BY_NAME, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: everything the benchmark writes lives here (inside the checkout, git-ignored)
SCRATCH = ROOT / ".bench_e2e"

DEFAULT_SEED = 2000
DEFAULT_REPS = 7
#: a time-boxed run keeps at least this many reps however slow the box is
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0
#: default/off/traced rounds of a traced pass that has no deadline
TRACE_ROUNDS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    """A child exited non-zero, timed out, or printed no result."""


# ------------------------------------------------------------------ children
def child_env() -> dict[str, str]:
    """This process's environment (``main`` put ``src`` on its PYTHONPATH) plus
    what every child gets."""
    env = dict(os.environ)
    env["TMPDIR"] = str(SCRATCH)  # anything a child spills stays inside the checkout
    # NumPy asks for transparent huge pages on large arrays; whether the kernel
    # has one to give decides if an array costs 1 fault or 512, which made
    # minor_faults vary 31k-56k on fig2_* and wall time bimodal.  Without the
    # request faults repeat within 0.02 % and count pages touched - README.md,
    # "The system-time finding".  A caller's own setting wins.
    env.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    return env


def run_child(workload: Workload, seed: int, *, telemetry: str = "default", trace: bool = False,
              smoke: bool = False, keep: bool = False) -> dict[str, Any]:
    """One rep: fresh interpreter, fresh output directory, deleted afterwards.

    Returns the child's report plus ``t_spawn``, ``duration_s`` and
    ``setup_s``; with ``keep`` the output directory survives under
    ``report["out"]`` for the caller to read and delete.
    """
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    command = [sys.executable, str(HERE / "child.py"), workload.name, "--seed", str(seed),
               "--out", str(out), "--telemetry", telemetry]
    if trace:
        command.append("--trace")
    if smoke:
        command.append("--smoke")
    t_spawn = time.time()
    kept = False
    try:
        try:
            done = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{workload.name}: no result within {CHILD_TIMEOUT_S:.0f} s") from exc
        duration = time.time() - t_spawn
        if done.returncode != 0 or not done.stdout.strip():
            raise ChildFailed(
                f"{workload.name}: child exited {done.returncode}\n{done.stderr[-2000:]}"
            )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        kept = keep
    finally:
        if not kept:
            shutil.rmtree(out, ignore_errors=True)
    if keep:
        report["out"] = str(out)
    report["t_spawn"] = t_spawn
    report["duration_s"] = duration
    t_ready = report["artifacts"].get("t_ready")
    report["setup_s"] = None if t_ready is None else t_ready - t_spawn
    return report


def warm_import() -> None:
    """One untimed ``import repro.experiments`` child, to fill the page cache."""
    subprocess.run([sys.executable, "-c", "import repro.experiments"], env=child_env(),
                   check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)


# ------------------------------------------------------------------- tallying
class Tally:
    """Attempts and failures over every child of a run (the result's header)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def child_failed(self, error: ChildFailed) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(str(error))

    def add_report(self, report: dict[str, Any]) -> None:
        """Jobs and output checks of one rep; retried, quarantined and resumed jobs fail."""
        self.attempted += report["jobs"] + len(report["checks"])
        self.failed += report["retries"] + report["quarantined"] + report["resumed"]
        for name, ok, detail in report["checks"]:
            if not ok:
                self.failed += 1
                self.messages.append(f"{report['workload']}: check {name} failed: {detail}")

    def add_digest_check(self, workload: Workload, report: dict[str, Any],
                         reference: dict[str, Any]) -> None:
        """Byte-identity across backends: same seed, same CSV bytes."""
        self.attempted += 1
        if report["digests"] != reference["digests"] or not report["digests"]:
            self.failed += 1
            self.messages.append(
                f"{workload.name}: CSV digests differ from {workload.reference} at seed "
                f"{report['seed']}"
            )

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def end_to_end_samples(reps: list[dict[str, Any]]) -> dict[str, list[float]]:
    """The six end-to-end metrics, one sample per rep."""
    return {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "work_per_s": [r["work"] / r["wall_s"] for r in reps],
        "cpu_user_s": [r["rusage"]["user_s"] for r in reps],
        "minor_faults": [r["rusage"]["minor_faults"] for r in reps],
        "peak_rss_mb": [r["rusage"]["peak_rss_mb"] for r in reps],
    }


def end_to_end_summary(reps: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    samples = end_to_end_samples(reps)
    return {m.name: summarize(samples[m.name], m.better, m.estimator) for m in END_TO_END}


# ---------------------------------------------------------------- traced pass
def traced_pass(workload: Workload, seed: int, smoke: bool, tally: Tally,
                deadline: float | None, span_groups: list[list[dict[str, Any]]]
                ) -> dict[str, float]:
    """Per-layer metrics of one workload: a traced child, replays, and the
    untraced / telemetry-off children the two overhead shares compare with.

    Rounds of default/off/traced children repeat while time remains before
    ``deadline`` (a ``time.monotonic`` value) or, without one, ``TRACE_ROUNDS``
    times (once under ``smoke``).  Each share compares the best rep of each
    kind: a single pair of reps differs by more than either overhead.  The
    spans of the traced child and of the replays are appended to
    ``span_groups``.
    """
    import layers  # imports repro lazily; only the traced pass needs it in-process

    traced = run_child(workload, seed, trace=True, smoke=smoke, keep=True)
    tally.add_report(traced)
    out = Path(traced["out"])
    tracer = SpanRecorder(workload.name)
    try:
        replayed = layers.replay(
            workload.spec, workload.run_kwargs(smoke), seed,
            workers=workload.jobs, chunks=int(traced["artifacts"]["engine.chunks"]),
            traced_out=out, scratch=out, tracer=tracer,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    walls = {"default": [], "off": [], "traced": [traced["wall_s"]]}
    cost = dict.fromkeys(walls, traced["duration_s"])  # what the next round will take
    kinds = ("default", "off")  # the first traced rep already ran
    while True:
        for kind in kinds:
            report = run_child(workload, seed, telemetry="off" if kind == "off" else "default",
                               trace=kind == "traced", smoke=smoke)
            tally.add_report(report)
            walls[kind].append(report["wall_s"])
            cost[kind] = report["duration_s"]
        kinds = ("default", "off", "traced")
        if deadline is None and len(walls["default"]) >= (1 if smoke else TRACE_ROUNDS):
            break
        if deadline is not None and time.monotonic() + sum(cost.values()) > deadline:
            break

    usage = traced["rusage"]
    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    metrics.update({k: v for k, v in traced["artifacts"].items() if k in metrics})
    metrics.update({k: v for k, v in replayed.items() if k in metrics})
    metrics.update({
        "experiments.import_s": traced["import_s"],
        "obs.artifact_write_s": traced["artifact_write_s"],
        "engine.retries": traced["retries"],
        "engine.quarantined": traced["quarantined"],
        "engine.respawns": traced["respawns"],
        "engine.resumed": traced["resumed"],
        "proc.cpu_sys_s": usage["sys_s"],
        "proc.sys_share": usage["sys_s"] / (usage["sys_s"] + usage["user_s"]),
        "obs.telemetry_share": 1.0 - min(walls["off"]) / min(walls["default"]),
        "trace.overhead_share": min(walls["traced"]) / min(walls["default"]) - 1.0,
        "checks.failed_share": tally.failed_share,
    })
    span_groups += [traced["spans"], tracer.spans]
    print(f"# {workload.name}: traced child wall_s {traced['wall_s']:.4f}, self time by span")
    for name, seconds in sorted(self_time_by_name(traced["spans"]).items(),
                                key=lambda item: -item[1])[:12]:
        print(f"#   {name:34s} {seconds:9.4f} s")
    return metrics


# --------------------------------------------------------------- environment
def environment() -> dict[str, Any]:
    """What the numbers depend on and the benchmark does not control."""
    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "numpy_madvise_hugepage": child_env()["NUMPY_MADVISE_HUGEPAGE"],
        "transparent_hugepage": thp.read_text().strip() if thp.exists() else None,
        "loadavg_start": os.getloadavg()[0],
    }


def close_environment(env: dict[str, Any]) -> None:
    """Record the closing load and flag a set of runs started on a busy box."""
    env["loadavg_end"] = os.getloadavg()[0]
    env["flagged"] = env["loadavg_start"] > (env["nproc"] or 1)
    print(f"# environment: {json.dumps(env)}")
    if env["flagged"]:
        print(f"# WARNING: started with loadavg {env['loadavg_start']:.2f} > nproc "
              f"{env['nproc']}: times in this set are contended, do not compare them")


# ----------------------------------------------------------------- reporting
def print_end_to_end(name: str, summary: dict[str, dict[str, float]]) -> None:
    for metric in END_TO_END:
        s = summary[metric.name]
        print(f"{name:20s} {metric.name:14s} {s['value']:14.4f} {metric.unit:7s} "
              f"(median {s['median']:.4f}, q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n {s['n']})")


def print_per_layer(name: str, metrics: dict[str, float]) -> None:
    for metric in PER_LAYER:
        print(f"{name:20s} {metric.name:36s} {metrics[metric.name]:16.6f} {metric.unit}")


def result_line(tally: Tally, metrics: dict[str, float]) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    })


# ------------------------------------------------------------ the two drivers
def run_single(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    """Driver form: one workload for ``seconds``; last stdout line is the result."""
    env = environment()
    tally = Tally()
    reference = None
    try:
        # untimed warm-up: the reference backend's run when the reps will be
        # compared with it (its CSV digests are the byte-identity check), else
        # a bare import
        if workload.reference is not None and not trace:
            reference = run_child(BY_NAME[workload.reference], seed)
            tally.add_report(reference)
        else:
            warm_import()
        started = time.monotonic()
        if trace:
            span_groups: list[list[dict[str, Any]]] = []
            metrics = traced_pass(workload, seed, False, tally, started + seconds, span_groups)
            path = write_chrome_trace(merge_spans(*span_groups),
                                      SCRATCH / f"trace-{workload.name}.json")
            print(f"# trace -> {path.relative_to(ROOT)}")
            print_per_layer(workload.name, metrics)
        else:
            reps: list[dict[str, Any]] = []
            while True:
                rep = run_child(workload, seed)
                tally.add_report(rep)
                if reference is not None:
                    tally.add_digest_check(workload, rep, reference)
                reps.append(rep)
                elapsed = time.monotonic() - started
                typical = statistics.median(r["duration_s"] for r in reps)
                if len(reps) >= MIN_REPS and elapsed + typical > seconds:
                    break
            summary = end_to_end_summary(reps)
            print_end_to_end(workload.name, summary)
            metrics = {name: s["value"] for name, s in summary.items()}
    except ChildFailed as error:
        tally.child_failed(error)
        metrics = {}
    close_environment(env)
    for message in tally.messages:
        print(f"# FAILED: {message}")
    if not metrics:
        return 1  # no result line: a run that could not measure reports nothing
    print(result_line(tally, metrics))
    return 0 if tally.failed == 0 else 1


def run_set(seed: int, reps: int, smoke: bool, trace: bool) -> dict[str, Any]:
    """Every workload, ``reps`` reps each, interleaved; optional traced pass."""
    env = environment()
    tally = Tally()
    warm_import()
    by_workload: dict[str, list[dict[str, Any]]] = {w.name: [] for w in WORKLOADS}
    for rep in range(reps):
        for workload in WORKLOADS:
            try:
                report = run_child(workload, seed, smoke=smoke)
            except ChildFailed as error:
                tally.child_failed(error)
                continue
            tally.add_report(report)
            by_workload[workload.name].append(report)
            if workload.reference is not None and len(by_workload[workload.reference]) > rep:
                tally.add_digest_check(workload, report, by_workload[workload.reference][rep])
        print(f"# rep {rep + 1}/{reps} done", flush=True)
    result: dict[str, Any] = {"seed": seed, "reps": reps, "smoke": smoke,
                              "end_to_end": {}, "per_layer": {}}
    for workload in WORKLOADS:
        if by_workload[workload.name]:
            result["end_to_end"][workload.name] = end_to_end_summary(by_workload[workload.name])
            print_end_to_end(workload.name, result["end_to_end"][workload.name])
    if trace:
        span_groups: list[list[dict[str, Any]]] = []
        for workload in WORKLOADS:
            try:
                metrics = traced_pass(workload, seed, smoke, tally, None, span_groups)
            except ChildFailed as error:
                tally.child_failed(error)
                continue
            result["per_layer"][workload.name] = metrics
            print_per_layer(workload.name, metrics)
        path = write_chrome_trace(merge_spans(*span_groups), SCRATCH / "trace.json")
        print(f"# trace -> {path.relative_to(ROOT)}")
    close_environment(env)
    for message in tally.messages:
        print(f"# FAILED: {message}")
    result.update(environment=env, attempted=tally.attempted, failed=tally.failed,
                  failed_share=tally.failed_share, messages=tally.messages)
    print(f"# attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_share {tally.failed_share:.6f}")
    return result


def compare_sets(first: dict[str, Any], second: dict[str, Any]) -> bool:
    """A/A: every (end-to-end metric, workload) pair within its bound, both ways."""
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    print(f"{'workload':20s} {'metric':14s} {'set A':>14s} {'set B':>14s} {'differ':>8s} "
          f"{'bound':>6s}  {'q-spread A':>10s}")
    agree = True
    for workload in WORKLOADS:
        for metric in END_TO_END:
            a = first["end_to_end"][workload.name][metric.name]
            b = second["end_to_end"][workload.name][metric.name]
            differ = max(worsening(a["value"], b["value"], metric.better),
                         worsening(b["value"], a["value"], metric.better))
            within = differ <= bounds[metric.name]
            agree &= within
            print(f"{workload.name:20s} {metric.name:14s} {a['value']:14.4f} {b['value']:14.4f} "
                  f"{differ:8.4f} {bounds[metric.name]:6.2f}  "
                  f"{(a['q3'] - a['q1']) / a['median']:10.4f}{'' if within else '  OUTSIDE BOUND'}")
    return agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run this one workload for --seconds (the driver form)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=17.0,
                        help="with --workload: how long to measure")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also (with --workload: only) take the per-layer traced pass")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help=f"reps per workload without --workload (at least {DEFAULT_REPS})")
    parser.add_argument("--smoke", action="store_true",
                        help="all eight workloads at tiny sizes, one rep, all checks on")
    parser.add_argument("--aa", action="store_true",
                        help="two complete sets back to back; fail unless they agree within bounds")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "experiments").is_dir():
        print(f"run.py: {SRC} holds no repro package - the benchmark measures the program in "
              f"this checkout and cannot run without it", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    use_checkout_source()  # for the replays here and, through the environment, every child
    if args.workload is not None:
        return run_single(BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace))
    if not args.smoke and args.reps < DEFAULT_REPS:
        parser.error(f"--reps must be at least {DEFAULT_REPS}: best-of-K needs its K")
    reps = 1 if args.smoke else args.reps
    result = run_set(args.seed, reps, args.smoke, bool(args.trace))
    ok = result["failed"] == 0
    if args.aa:
        second = run_set(args.seed, reps, args.smoke, False)
        ok &= second["failed"] == 0
        ok &= compare_sets(result, second)
        result = {"first": result, "second": second}
    (SCRATCH / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"# result -> {(SCRATCH / 'result.json').relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
