"""The plan driver: one plan's lifecycle, written once for every backend.

Running a :class:`~repro.engine.jobs.JobPlan` is two things.  *Transport* —
getting jobs to where they execute and outcomes back — differs per backend:
inline, a process pool, TCP.  The *lifecycle* does not, and lives here:

* :class:`PlanDriver` (coordinating process): resume from the checkpoint,
  progress totals, ``plan.begin``/``job.resumed``, then :meth:`~PlanDriver.settle`
  for every batch of outcomes — values, attempts, quarantine, one checkpoint
  commit, registry merge, flight ingest, heartbeat absorb — and one ending:
  ``plan.end`` or Ctrl-C → ``plan.interrupted`` → :class:`PlanInterrupted`,
  rate gauges recomputed from the merged counters, the
  :class:`PlanExecution` built.
* :func:`run_chunk` (wherever jobs execute off-process): a chunk of jobs
  under a private registry, silent heartbeat collector and buffered flight
  recorder, returned in the one wire form of :mod:`repro.engine.chunk`.

A transport is a callable ``dispatch(driver)``: it hands
:meth:`~PlanDriver.remaining` jobs out, calls ``settle`` with what comes
back, and on *any* exit — return, error, ``KeyboardInterrupt`` — settles
what had already finished and releases its workers without waiting on
them (its ``finally``).  It returns the extra ``plan.end`` fields it wants
recorded.  Respawn *budgets* belong to the transport (only it knows what a
dead worker costs); it reports each respawn through
:meth:`~PlanDriver.respawned` so metrics, flight stream and manifest agree.

Because every job's random stream is spawned from ``(root seed, experiment,
job name)`` (see :mod:`repro.engine.jobs`), transports can only change wall
time and event order, never values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable

from repro.engine.checkpoint import Checkpoint
from repro.engine.chunk import ChunkResult
from repro.engine.jobs import Job, JobPlan
from repro.engine.retry import JobOutcome, RetryPolicy, execute_job
from repro.obs.flightrecorder import FlightRecorder, flight_recorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry, current_registry, ensure_core_metrics, use_registry
from repro.obs.progress import ProgressReporter, heartbeat, set_heartbeat

__all__ = ["PlanExecution", "PlanInterrupted", "PlanDriver", "run_chunk"]


@dataclass
class PlanExecution:
    """What an executor hands back: values by job name plus provenance."""

    values: dict[str, Any]
    backend: str
    workers: int
    job_seeds: dict[str, int] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)
    timed_out: list[str] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    pool_respawns: int = 0
    #: distributed backend only: per-worker attribution keyed by worker id
    #: (``{"host", "pid", "jobs", "wall_s", "cpu_s"}`` each)
    hosts: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: the run was cut short by SIGINT/Ctrl-C (partial ``values``)
    interrupted: bool = False

    @property
    def retries(self) -> int:
        """Total attempts beyond the first across all jobs run this time."""
        return sum(a - 1 for a in self.attempts.values())


class PlanInterrupted(RuntimeError):
    """Ctrl-C/SIGINT stopped a plan; ``execution`` holds the partial state.

    The driver catches :class:`KeyboardInterrupt` after the transport has
    settled every outcome that had already arrived (checkpoint records
    included — nothing finished is lost) and cancelled the rest, and raises
    this instead.  The runner turns it into a manifest marked
    ``status="interrupted"`` and a clean exit, so ``--resume`` picks up
    exactly where the interrupt landed.
    """

    def __init__(self, execution: PlanExecution) -> None:
        done = len(execution.values)
        super().__init__(
            f"plan interrupted after {done} settled job{'s' if done != 1 else ''}; "
            f"partial results checkpointed"
        )
        self.execution = execution


class PlanDriver:
    """One run of one plan: everything that is not transport.

    Constructing the driver *starts* the plan: checkpointed jobs are loaded
    (and announced as ``job.resumed``), the active heartbeat learns the
    plan's totals, ``plan.begin`` is emitted.  :meth:`run` then lets a
    transport move the :meth:`remaining` jobs and ends the plan.  Metrics,
    heartbeat and flight recorder are the caller's current ones, captured
    once.  Not thread-safe by itself: a transport whose results arrive on
    several threads (the TCP coordinator) queues them to one settler thread
    that makes every call (``distributed.py``'s ``_settle``).
    """

    def __init__(
        self, plan: JobPlan, checkpoint: Checkpoint | None, backend: str, workers: int
    ) -> None:
        self.plan = plan
        self.checkpoint = checkpoint
        self.backend = backend
        self.workers = workers
        self.registry = current_registry()
        self.reporter = heartbeat()
        self.recorder = flight_recorder()
        records = checkpoint.load(plan) if checkpoint is not None else []
        self.values: dict[str, Any] = {r.job: r.value for r in records}
        self.resumed = list(self.values)
        self.attempts: dict[str, int] = {}
        self.quarantined: list[str] = []
        self.timed_out: list[str] = []
        self.respawns = 0
        self.hosts: dict[str, dict[str, Any]] = {}
        #: names of the jobs no outcome has settled yet — all `settle` accepts
        self.unsettled = {job.name for job in plan.jobs} - self.values.keys()
        if self.reporter is not None:
            # curve-level plans record their full trial budget in the plan
            # meta; without it the reporter knows a rate but never an ETA
            total = plan.meta.get("total_trials")
            if self.reporter.total is None and total:
                self.reporter.total = int(total)
            self.reporter.jobs_total = len(plan.jobs)
        fields: dict[str, Any] = dict(
            backend=backend,
            workers=workers,
            jobs=len(plan.jobs),
            resumed=len(self.resumed),
            total_trials=plan.meta.get("total_trials"),
        )
        # topology-parameterized plans label their whole flight stream; legacy
        # plans omit the field so old consumers see an unchanged event shape
        if plan.meta.get("topology") is not None:
            fields["topology"] = plan.meta["topology"]
        self.emit("plan.begin", **fields)
        for name in self.resumed:
            self.emit("job.resumed", job=name)

    def emit(self, kind: str, **fields: Any) -> None:
        """One event on the run's flight channel (no-op when recording is off)."""
        if self.recorder is not None:
            self.recorder.emit(kind, **fields)

    def remaining(self) -> list[Job]:
        """The unsettled jobs in plan order — what a transport hands out."""
        return [job for job in self.plan.jobs if job.name in self.unsettled]

    def settle(self, result: ChunkResult) -> None:
        """Fold one batch of results in — the only way results enter a run.

        The inline transport settles bare outcomes; an off-process chunk brings
        its registry, heartbeat summary and flight events.  The registry merge
        comes first and is all or nothing: a refused chunk leaves no trace.
        Outcomes may come from outside the process, so each is checked against
        the plan: one naming a job that is not awaiting settlement (unknown,
        or settled already — a requeued chunk's first owner answering late) is
        dropped with a ``job.dropped`` event, never recorded twice.  The
        batch's ok outcomes reach the checkpoint as **one** commit (one fsync):
        a crash loses the batches in flight — a job on serial, chunks
        elsewhere — and nothing whose ``checkpoint.write`` event was emitted.
        """
        self.registry.merge(result.registry)
        accepted = 0
        completed: list[JobOutcome] = []
        for outcome in result.outcomes:
            if outcome.name not in self.unsettled:
                known = outcome.name in self.attempts or outcome.name in self.values
                self.emit(
                    "job.dropped",
                    job=outcome.name,
                    reason="already-settled" if known else "unknown-job",
                )
                continue
            self.unsettled.discard(outcome.name)
            accepted += 1
            self.attempts[outcome.name] = outcome.attempts
            if outcome.ok:
                self.values[outcome.name] = outcome.value
                completed.append(outcome)
            else:
                self.quarantined.append(outcome.name)
                if outcome.timed_out:
                    self.timed_out.append(outcome.name)
        if self.checkpoint is not None and completed:
            # one durable commit per batch: a job on serial, a chunk elsewhere
            self.checkpoint.commit(self.plan, completed)
        if self.recorder is not None:
            self.recorder.ingest(result.flight)
        if self.reporter is not None:
            if result.heartbeat:
                self.reporter.absorb(result.heartbeat)
            self.reporter.add(0, jobs=accepted)

    def quarantine(self, name: str, error: str) -> None:
        """Give a job up without an outcome from any worker (they all died).

        Does for it what :func:`~repro.engine.retry.execute_job` does when a
        job exhausts its retries in-process — counter, heartbeat incident,
        ``job.quarantined`` event — then settles it like any failed outcome.
        """
        self.registry.counter("engine_jobs_quarantined_total").add(1)
        if self.reporter is not None:
            self.reporter.add(0, quarantined=1)
        self.emit("job.quarantined", job=name, attempts=1, timed_out=False, error=error)
        self.settle(ChunkResult([JobOutcome(name=name, ok=False, error=error)]))

    def respawned(self, requeued: int, **fields: Any) -> None:
        """A transport replaced dead workers: count it everywhere at once."""
        self.respawns += 1
        self.registry.counter("engine_pool_respawns_total").add(1)
        self.emit("pool.respawn", respawns=self.respawns, requeued=requeued, **fields)

    def sample_scheduler(self, outstanding_chunks: int, workers: int) -> None:
        """One queue-depth/utilization gauge sample on the flight channel."""
        self.emit(
            "scheduler.gauge",
            queue_depth=len(self.unsettled),
            outstanding_chunks=outstanding_chunks,
            utilization=round(min(1.0, outstanding_chunks / workers), 4) if workers else 0.0,
            workers=workers,
        )

    def run(self, dispatch: Callable[["PlanDriver"], dict[str, Any] | None]) -> PlanExecution:
        """Let ``dispatch`` move the remaining jobs, then end the plan."""
        try:
            end_fields = dispatch(self) or {}
        except KeyboardInterrupt:
            # the transport's cleanup already settled every finished chunk;
            # only work that was mid-flight is lost, and --resume reruns
            # exactly that remainder
            self.emit(
                "plan.interrupted",
                jobs=len(self.plan.jobs),
                completed=len(self.values),
                backend=self.backend,
            )
            raise PlanInterrupted(self._finish(interrupted=True)) from None
        self.emit(
            "plan.end",
            jobs=len(self.plan.jobs),
            completed=len(self.values),
            quarantined=len(self.quarantined),
            **end_fields,
        )
        return self._finish()

    def _finish(self, interrupted: bool = False) -> PlanExecution:
        # Throughput gauges are re-derived from the merged totals: summing
        # per-chunk rate gauges over-counts (each measures a different wall
        # interval); the ratio of the merged counters is the right aggregate.
        for gauge_name, total_name, wall_name in (
            ("sim_events_per_second", "sim_events_total", "sim_run_seconds_total"),
            ("mc_iterations_per_second", "mc_iterations_total", "mc_wall_seconds_total"),
        ):
            total, wall = self.registry.get(total_name), self.registry.get(wall_name)
            if total is not None and wall is not None and wall.value > 0:
                self.registry.gauge(gauge_name).set(total.value / wall.value)
        return PlanExecution(
            values=self.values,
            backend=self.backend,
            workers=self.workers,
            job_seeds=self.plan.job_seeds(),
            attempts=self.attempts,
            quarantined=self.quarantined,
            timed_out=self.timed_out,
            resumed=self.resumed,
            pool_respawns=self.respawns,
            hosts=self.hosts,
            interrupted=interrupted,
        )


#: process-local: has this worker installed profiling and announced itself on
#: the flight channel?
_worker_announced = False


def run_chunk(experiment: str, seed: int, jobs: list[Job], policy: RetryPolicy) -> dict[str, Any]:
    """Worker entry point: run a chunk of jobs under private observability.

    Returns :meth:`ChunkResult.to_wire <repro.engine.chunk.ChunkResult.to_wire>`:
    the per-job outcomes, the chunk's metrics registry, its silent heartbeat
    collector's summary, its buffered flight events (real PIDs and timestamps)
    and its wall/CPU seconds — plain data a pool pickles and ``repro worker`` frames.
    Module-level so process pools can pickle it regardless of start method.
    Retries and timeouts happen here: only quarantined outcomes (or, under a
    fail-fast policy, a :class:`~repro.engine.retry.JobError`) reach the parent.
    """
    global _worker_announced
    wall_start, cpu_start = perf_counter(), process_time()
    plan = JobPlan(experiment=experiment, seed=seed, jobs=jobs, reduce=lambda v: v)
    registry = ensure_core_metrics(MetricsRegistry())
    # Never emits (interval is effectively infinite): pure collector whose
    # summary the parent absorbs into the run's real reporter.
    collector = ProgressReporter(experiment, interval_s=1e12)
    set_heartbeat(collector)
    buffer = FlightRecorder(None, experiment=experiment)
    if not _worker_announced:  # this process's first chunk
        _worker_announced = True
        from repro.obs.profiler import install_profiling

        install_profiling()
        buffer.emit("worker.spawn", chunk_jobs=len(jobs))
    set_flight_recorder(buffer)
    try:
        with use_registry(registry):
            outcomes = [
                execute_job(experiment, seed, job, plan.job_seedseq(job), policy) for job in jobs
            ]
    finally:
        set_flight_recorder(None)
        set_heartbeat(None)
    return ChunkResult(
        outcomes, registry, collector.summary(), buffer.drain(),
        wall_s=perf_counter() - wall_start, cpu_s=process_time() - cpu_start,
    ).to_wire()
