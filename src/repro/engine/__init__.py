"""Parallel execution engine for the experiment suite.

Three layers turn "regenerate every paper artifact" into work that scales
with cores while staying bit-for-bit reproducible from one integer seed:

* :mod:`repro.engine.spec` — the declarative registry:
  :class:`ExperimentSpec` (name, run callable, ``quick``/``full`` profiles),
  registered by each :mod:`repro.experiments.*` module at import time.
* :mod:`repro.engine.jobs` — :class:`Job` / :class:`JobPlan`: a sweep
  decomposed into independent units, each with a deterministic child seed
  spawned from ``(root seed, experiment, job name)``.
* :mod:`repro.engine.driver` — :class:`PlanDriver`, the plan lifecycle
  written once (resume, settle, checkpoint, Ctrl-C, the final
  :class:`PlanExecution`), over three transports that only move jobs:
  :class:`SerialExecutor` (default, inline), the process-pool
  :class:`ParallelExecutor` (``drs-experiments --jobs N``), and the
  multi-host :class:`~repro.engine.distributed.DistributedExecutor`
  (``--backend distributed`` plus any number of ``drs-worker`` processes).
  The last two share one chunk size, carrier and decoder (:mod:`repro.engine.chunk`).

Fault tolerance rides on top (``drs-experiments --retries/--resume``):
:mod:`repro.engine.retry` gives every backend per-job retry budgets,
deterministic backoff, timeouts, and quarantine;
:mod:`repro.engine.checkpoint` streams completed jobs to a crash-safe
JSONL so an interrupted sweep resumes without repeating finished work.

See ``docs/engine.md`` for the seed-spawning contract and worked examples.
"""

from typing import Any

from repro.engine.checkpoint import Checkpoint, CheckpointRecord
from repro.engine.distributed import DistributedExecutor
from repro.engine.driver import PlanDriver, PlanExecution, PlanInterrupted
from repro.engine.executors import ParallelExecutor, SerialExecutor, make_executor
from repro.engine.jobs import Job, JobFn, JobPlan, cell_point, curve_value
from repro.engine.retry import (
    FAIL_FAST,
    JobError,
    JobOutcome,
    JobTimeoutError,
    RetryPolicy,
)
from repro.engine.spec import (
    ExperimentSpec,
    experiment_specs,
    get_spec,
    register,
    spec_names,
)


def run_plan(
    plan: JobPlan, executor: Any | None = None, checkpoint: Checkpoint | None = None
) -> Any:
    """Execute a plan on an executor (default serial) and reduce the values.

    With a ``checkpoint``, jobs it already holds are skipped and every newly
    completed job is streamed into it (crash-safe), which is what backs
    ``drs-experiments --resume``.

    The reduced result's ``meta`` — when it has one, as every
    :class:`~repro.experiments.base.ExperimentResult` does — gains an
    ``engine`` section recording backend, worker count, job count, root
    seed, the per-job seed fingerprints, and the fault-tolerance tallies
    (attempts per executed job, total retries, quarantined/timed-out job
    names, jobs resumed from checkpoint, pool respawns), which the runner
    folds into the run manifest.
    """
    executor = executor if executor is not None else SerialExecutor()
    execution = executor.run(plan, checkpoint=checkpoint)
    result = plan.reduce(execution.values)
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        meta["engine"] = {
            "backend": execution.backend,
            "workers": execution.workers,
            "jobs": len(plan.jobs),
            "root_seed": plan.seed,
            "job_seeds": execution.job_seeds,
            "attempts": execution.attempts,
            "retries": execution.retries,
            "quarantined": sorted(execution.quarantined),
            "timed_out": sorted(execution.timed_out),
            "resumed": sorted(execution.resumed),
            "pool_respawns": execution.pool_respawns,
        }
        if execution.hosts:
            meta["engine"]["hosts"] = execution.hosts
    return result


__all__ = [
    "ExperimentSpec",
    "register",
    "get_spec",
    "experiment_specs",
    "spec_names",
    "Job",
    "JobFn",
    "JobPlan",
    "curve_value",
    "cell_point",
    "JobError",
    "JobTimeoutError",
    "JobOutcome",
    "RetryPolicy",
    "FAIL_FAST",
    "Checkpoint",
    "CheckpointRecord",
    "SerialExecutor",
    "ParallelExecutor",
    "DistributedExecutor",
    "PlanDriver",
    "PlanExecution",
    "PlanInterrupted",
    "make_executor",
    "run_plan",
]
