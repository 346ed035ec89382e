"""Executors: the three transports a :class:`~repro.engine.driver.PlanDriver` runs on.

An executor's ``run(plan, checkpoint=)`` starts a driver — which owns the
plan's lifecycle: resume, settling, checkpointing, Ctrl-C, the final
:class:`~repro.engine.driver.PlanExecution` — and gives it a ``dispatch``
that only moves jobs:

* :class:`SerialExecutor` — the zero-worker transport and the reference
  behavior: every job runs in-process, in plan order, publishing metrics
  and heartbeats directly into the caller's current registry/reporter.
* :class:`ParallelExecutor` — submits the jobs, in guided-size chunks, to a
  :class:`concurrent.futures.ProcessPoolExecutor`; each chunk runs through
  :func:`~repro.engine.driver.run_chunk` and comes back, pickled, in the
  wire form ``ChunkResult.from_wire`` decodes for ``settle``
  (:mod:`repro.engine.chunk`).  Survives ``BrokenProcessPool``.
* :class:`~repro.engine.distributed.DistributedExecutor` (its own module)
  — the same chunks, the same wire form, over TCP to workers: ``repro
  worker`` processes on any host, and local ones forked from this process.

All three run each job through :func:`repro.engine.retry.execute_job` under
an optional :class:`~repro.engine.retry.RetryPolicy` (``policy=``); without
one the first failure raises :class:`~repro.engine.retry.JobError`.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any

from repro.engine.checkpoint import Checkpoint
from repro.engine.chunk import ChunkResult, guided_chunks
from repro.engine.driver import PlanDriver, PlanExecution, run_chunk
from repro.engine.jobs import JobPlan
from repro.engine.retry import FAIL_FAST, JobError, RetryPolicy, execute_job

__all__ = ["SerialExecutor", "ParallelExecutor", "make_executor", "run_plan"]


class SerialExecutor:
    """Run jobs one after another in the calling process (the default)."""

    name = "serial"
    workers = 1

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy

    def run(self, plan: JobPlan, checkpoint: Checkpoint | None = None) -> PlanExecution:
        """Execute every job in plan order; deterministic for a given plan."""
        policy = self.policy if self.policy is not None else FAIL_FAST

        def dispatch(driver: PlanDriver) -> None:
            for job in driver.remaining():
                driver.emit("job.submitted", job=job.name)
                seed_seq = plan.job_seedseq(job)
                outcome = execute_job(plan.experiment, plan.seed, job, seed_seq, policy)
                driver.settle(ChunkResult([outcome]))

        return PlanDriver(plan, checkpoint, self.name, self.workers).run(dispatch)


class ParallelExecutor:
    """Fan jobs out over a process pool; results identical to serial.

    ``workers`` defaults to the machine's CPU count.  Jobs go out in
    guided-size chunks (several per round trip, fewer towards the end): that
    amortizes pickling and registry transfer, and affects scheduling only.

    If the pool breaks (a worker segfaults, is OOM-killed, …) the executor
    replaces it — up to ``max_pool_respawns`` times per plan — and requeues
    exactly the jobs whose outcomes had not been received.  A job that
    *keeps* breaking its worker therefore exhausts the respawn budget and
    surfaces as a :class:`JobError` attributed to ``"<pool>"`` (the broken
    pipe cannot say which job killed it).
    """

    name = "process-pool"

    def __init__(
        self,
        workers: int | None = None,
        policy: RetryPolicy | None = None,
        max_pool_respawns: int = 3,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pool_respawns < 0:
            raise ValueError(f"max_pool_respawns must be >= 0, got {max_pool_respawns}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.policy = policy
        self.max_pool_respawns = max_pool_respawns
        # the pool's module, and multiprocessing under it, load when a pool is
        # configured: never in a serial run, and before a pool run's plan starts
        from concurrent.futures import process

        self._process = process

    def run(self, plan: JobPlan, checkpoint: Checkpoint | None = None) -> PlanExecution:
        """Execute the plan on the pool, merging worker observability back."""
        return PlanDriver(plan, checkpoint, self.name, self.workers).run(self._dispatch)

    def _dispatch(self, driver: PlanDriver) -> dict[str, int]:
        plan = driver.plan
        policy = self.policy if self.policy is not None else FAIL_FAST

        def settle(future: Future) -> None:
            result = ChunkResult.from_wire(future.result())
            pool_pids.update(event["pid"] for event in result.flight)
            driver.settle(result)

        chunks = guided_chunks(driver.remaining(), self.workers)
        while chunks:
            # The pool is managed by hand (no `with`): its __exit__ is a
            # shutdown(wait=True), which would block a Ctrl-C behind every
            # chunk still running.
            pool = self._process.ProcessPoolExecutor(max_workers=self.workers)
            pending: set[Future] = set()
            pool_pids: set[int] = set()  # workers seen in this pool generation
            broken: Exception | None = None
            try:
                for chunk in chunks:
                    pending.add(pool.submit(run_chunk, plan.experiment, plan.seed, chunk, policy))
                    for job in chunk:
                        driver.emit("job.submitted", job=job.name)
                driver.sample_scheduler(len(pending), self.workers)
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        pending.discard(future)
                        settle(future)
                        driver.sample_scheduler(len(pending), self.workers)
            except self._process.BrokenProcessPool as exc:
                broken = exc
            finally:
                # Leaving early (pool break, job failure, Ctrl-C) with futures
                # outstanding: the chunks that did finish are real — settle
                # them, checkpoint records included — then cancel the rest
                # and go without waiting on running workers.
                for future in [f for f in pending if f.done() and f.exception() is None]:
                    settle(future)
                pool.shutdown(wait=not pending, cancel_futures=True)
                for pid in sorted(pool_pids):
                    driver.emit("worker.exit", pid=pid)
            if broken is None:
                break
            if driver.respawns >= self.max_pool_respawns:
                raise JobError(
                    plan.experiment,
                    "<pool>",
                    f"process pool broke {driver.respawns + 1} times; giving up: {broken!r}",
                ) from broken
            # Requeue (and rebalance) everything whose outcome never arrived;
            # settled jobs are safe — their results, metrics, and checkpoint
            # records were folded in before the break.
            chunks = guided_chunks(driver.remaining(), self.workers)
            driver.respawned(requeued=sum(len(c) for c in chunks))
        return {"pool_respawns": driver.respawns}


def make_executor(
    jobs: int | None,
    policy: RetryPolicy | None = None,
    backend: str = "local",
    coordinator: str | None = None,
):
    """CLI helper: ``--jobs N`` (and ``--backend``) to an executor.

    ``backend="local"`` (the default) keeps the historical mapping:
    ``--jobs 1`` (and single-core machines asking for "all cores") stays
    serial — a one-worker pool costs process round trips and buys nothing —
    while ``--jobs N`` builds an N-worker pool and ``0``/``None`` uses all
    cores.  ``backend="distributed"`` runs the TCP coordinator of
    :class:`~repro.engine.distributed.DistributedExecutor` instead:
    ``--jobs N`` forks N local workers from this process against it, and
    ``--jobs 0``/``None`` starts none — the run waits for external workers
    to join at the ``coordinator`` address (``HOST:PORT``, default
    ``127.0.0.1:0`` = loopback, ephemeral port).  ``policy`` (if any) is
    threaded through to the chosen backend.
    """
    if backend == "distributed":
        from repro.engine.distributed import DistributedExecutor

        if jobs is not None and jobs < 0:
            raise ValueError(f"--jobs must be >= 0, got {jobs}")
        return DistributedExecutor(
            coordinator=coordinator,
            spawn_workers=jobs or 0,
            policy=policy,
        )
    if backend != "local":
        raise ValueError(f"unknown backend {backend!r} (expected 'local' or 'distributed')")
    if coordinator is not None:
        raise ValueError("--coordinator only applies to --backend distributed")
    if jobs is None or jobs == 1:
        return SerialExecutor(policy=policy)
    if jobs < 0:
        raise ValueError(f"--jobs must be >= 0, got {jobs}")
    workers = jobs if jobs > 0 else (os.cpu_count() or 1)
    if workers == 1:
        return SerialExecutor(policy=policy)
    return ParallelExecutor(workers=workers, policy=policy)


def run_plan(
    plan: JobPlan, executor: Any | None = None, checkpoint: Checkpoint | None = None
) -> Any:
    """Execute a plan on an executor (default serial) and reduce the values.

    With a ``checkpoint``, jobs it already holds are skipped and every newly
    completed job is streamed into it (crash-safe), which is what backs
    ``repro run --resume``.

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
