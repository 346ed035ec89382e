"""Parallel execution engine for the experiment suite.

Three layers turn "regenerate every paper artifact" into work that scales
with cores while staying bit-for-bit reproducible from one integer seed:

* :mod:`repro.engine.spec` — the declarative registry:
  :class:`ExperimentSpec` (name, run callable, ``quick``/``full`` profiles),
  one per row of the ``EXPERIMENTS`` table in :mod:`repro.experiments`; a
  spec's driver module is imported when the spec is first used.
* :mod:`repro.engine.jobs` — :class:`Job` / :class:`JobPlan`: a sweep
  decomposed into independent units, each with a deterministic child seed
  spawned from ``(root seed, experiment, job name)``.
* :mod:`repro.engine.driver` — :class:`PlanDriver`, the plan lifecycle
  written once (resume, settle, checkpoint, Ctrl-C, the final
  :class:`PlanExecution`), over three transports that only move jobs:
  :class:`SerialExecutor` (default, inline), the process-pool
  :class:`ParallelExecutor` (``repro run --jobs N``), and the
  multi-host :class:`~repro.engine.distributed.DistributedExecutor`
  (``--backend distributed`` plus any number of ``repro worker`` processes).
  The last two share one chunk size, carrier and decoder (:mod:`repro.engine.chunk`).

Fault tolerance rides on top (``repro run --retries/--resume``):
:mod:`repro.engine.retry` gives every backend per-job retry budgets,
deterministic backoff, timeouts, and quarantine;
:mod:`repro.engine.checkpoint` streams completed jobs to a crash-safe
JSONL so an interrupted sweep resumes without repeating finished work.

The names below resolve on first access (PEP 562), so ``repro worker``
loads the engine modules it runs and none of the experiment drivers.
See ``docs/engine.md`` for the seed-spawning contract and worked examples.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "spec": ["ExperimentSpec", "get_spec", "experiment_specs", "spec_names"],
        "jobs": ["Job", "JobFn", "JobPlan", "curve_value", "cell_point"],
        "retry": ["JobError", "JobTimeoutError", "JobOutcome", "RetryPolicy", "FAIL_FAST"],
        "checkpoint": ["Checkpoint", "CheckpointRecord"],
        "executors": ["SerialExecutor", "ParallelExecutor", "make_executor", "run_plan"],
        "distributed": ["DistributedExecutor"],
        "driver": ["PlanDriver", "PlanExecution", "PlanInterrupted"],
    },
)
