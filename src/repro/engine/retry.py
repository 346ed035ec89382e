"""Per-job fault tolerance: retry policies, timeouts, and quarantine.

A multi-hour sweep must not lose everything to one flaky job.  This module
gives the executors a :class:`RetryPolicy` — per-job attempt budget,
exponential backoff with deterministic jitter, and a per-job wall-clock
timeout — and :func:`execute_job`, the single code path the serial
executor, the process-pool workers and every ``repro worker`` run a job through.

It also normalises every ok value through the checkpoint codec, so ``reduce``
receives the same object whether the job ran here, in a pool worker, on another
host, or was replayed by ``--resume``; a value the codec cannot carry (a ``set``)
is that job's failure — quarantined or raised like any other, but never retried.

Determinism contract
--------------------

Retrying never changes results: a job's random stream is its spawned
``SeedSequence`` (see :mod:`repro.engine.jobs`), recreated identically on
every attempt, so a job that succeeds on attempt 3 returns byte-identical
output to one that succeeds on attempt 1.  Backoff jitter draws from a
*separate* stream spawned from ``(root seed, experiment, job name,
"backoff")`` — it shapes sleep times, never values.

Jobs that fail beyond the retry budget are **quarantined**: they come back
as failed :class:`JobOutcome` records instead of killing the run, and the
manifest plus the ``engine_*`` metrics record what happened.  A policy
with ``quarantine=False`` restores the legacy fail-fast behavior
(:data:`FAIL_FAST` is exactly that, with a single attempt).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Callable

import numpy as np

from repro.engine.checkpoint import decode_value, encode_value
from repro.obs.flightrecorder import flight_recorder
from repro.obs.metrics import current_registry
from repro.obs.progress import heartbeat
from repro.simkit.rng import seed_fingerprint, spawn_seedseq


class JobError(RuntimeError):
    """A job failed; carries the job name for attribution across processes."""

    def __init__(self, experiment: str, job_name: str, cause: BaseException | str) -> None:
        super().__init__(f"job {job_name!r} of experiment {experiment!r} failed: {cause!r}")
        self.experiment = experiment
        self.job_name = job_name
        self.cause = cause if isinstance(cause, str) else repr(cause)

    def __reduce__(self):
        # default exception pickling replays __init__ with ``args`` (the
        # formatted message) — a signature mismatch that would kill the pool's
        # result pipe; rebuild from the stored fields instead
        return (type(self), (self.experiment, self.job_name, self.cause))


class JobTimeoutError(JobError):
    """A job exceeded its per-attempt wall-clock budget."""

    def __init__(self, experiment: str, job_name: str, timeout_s: float) -> None:
        super().__init__(experiment, job_name, f"timed out after {timeout_s:g}s")
        self.timeout_s = timeout_s

    def __reduce__(self):
        return (type(self), (self.experiment, self.job_name, self.timeout_s))


@dataclass(frozen=True)
class RetryPolicy:
    """How hard an executor tries before giving a job up.

    ``max_attempts`` bounds total attempts (1 = no retries).  A failed
    attempt ``k`` sleeps ``min(backoff_max_s, backoff_base_s *
    backoff_factor**(k-1))`` scaled by ``1 + jitter_frac * u`` where ``u``
    is drawn from the job's deterministic backoff stream.  ``timeout_s``
    caps each attempt's wall clock (``None`` = unlimited).  With
    ``quarantine`` the run continues past exhausted jobs; without it the
    final failure raises :class:`JobError` (legacy fail-fast).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    jitter_frac: float = 0.5
    timeout_s: float | None = None
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.jitter_frac < 0:
            raise ValueError(f"jitter_frac must be non-negative, got {self.jitter_frac}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")

    def backoff_s(self, failures: int, rng: np.random.Generator) -> float:
        """Sleep before the next attempt, after ``failures`` failed ones."""
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        base = min(self.backoff_max_s, self.backoff_base_s * self.backoff_factor ** (failures - 1))
        return base * (1.0 + self.jitter_frac * float(rng.random()))


#: Legacy executor semantics: one attempt, first failure raises.
FAIL_FAST = RetryPolicy(max_attempts=1, backoff_base_s=0.0, jitter_frac=0.0, quarantine=False)


@dataclass
class JobOutcome:
    """What running one job under a policy produced; ``value`` is in codec-normal form."""

    name: str
    ok: bool
    value: Any = None
    error: str | None = None
    attempts: int = 1
    timed_out: bool = False
    elapsed_s: float = 0.0


def _call_with_timeout(
    fn: Callable[[dict[str, Any], np.random.SeedSequence], Any],
    params: dict[str, Any],
    seed_seq: np.random.SeedSequence,
    timeout_s: float | None,
    experiment: str,
    job_name: str,
) -> Any:
    """Run ``fn`` with an optional wall-clock budget.

    The timeout runs the call on a daemon thread and abandons it on expiry
    — the thread keeps running until it returns on its own (Python cannot
    kill threads), but the caller regains control and can retry or
    quarantine.  Workers recycled at pool shutdown clean the strays up.
    """
    if timeout_s is None:
        return fn(params, seed_seq)
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn(params, seed_seq)
        except BaseException as exc:  # re-raised on the calling thread below
            box["error"] = exc

    thread = threading.Thread(target=target, name=f"job-{job_name}", daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise JobTimeoutError(experiment, job_name, timeout_s)
    if "error" in box:
        raise box["error"]
    return box["value"]


def execute_job(
    experiment: str,
    root_seed: int,
    job: Any,
    seed_seq: np.random.SeedSequence,
    policy: RetryPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> JobOutcome:
    """Run one job under ``policy``; the shared serial/worker code path.

    Every attempt recreates the job's stream from the same ``seed_seq``,
    so retried successes are byte-identical to first-try successes; the
    value comes back normalised through the checkpoint codec.  Publishes
    ``engine_job_attempts_total`` / ``engine_job_retries_total`` /
    ``engine_job_timeouts_total`` / ``engine_jobs_quarantined_total`` into the
    current registry, retry/quarantine incident counts into the current
    heartbeat, and per-attempt lifecycle events — with wall/CPU time and the
    job's seed fingerprint — into the current flight recorder, when installed.
    """
    registry = current_registry()
    recorder = flight_recorder()
    backoff_rng: np.random.Generator | None = None
    started = perf_counter()
    started_cpu = process_time()
    last_error = ""
    timed_out = False
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            registry.counter("engine_job_retries_total").add(1)
            hb = heartbeat()
            if hb is not None:
                hb.add(0, retries=1)
            if backoff_rng is None:
                backoff_rng = np.random.default_rng(
                    spawn_seedseq(root_seed, experiment, job.name, "backoff")
                )
            backoff = policy.backoff_s(attempt - 1, backoff_rng)
            if recorder is not None:
                recorder.emit("job.retry", job=job.name, attempt=attempt, backoff_s=backoff)
            sleep(backoff)
        registry.counter("engine_job_attempts_total").add(1)
        if recorder is not None:
            recorder.emit("job.attempt", job=job.name, attempt=attempt)
        try:
            value = _call_with_timeout(
                job.fn, job.params, seed_seq, policy.timeout_s, experiment, job.name
            )
            try:
                # one form on every backend: what the checkpoint replays and the wire carries
                value = decode_value(encode_value(value))
            except TypeError as exc:  # the job's failure, and a deterministic one: not retried
                timed_out, last_error = False, repr(exc)
                break
            elapsed = perf_counter() - started
            if recorder is not None:
                recorder.emit(
                    "job.completed",
                    job=job.name,
                    ok=True,
                    attempts=attempt,
                    wall_s=round(elapsed, 6),
                    cpu_s=round(process_time() - started_cpu, 6),
                    seed_fingerprint=seed_fingerprint(seed_seq),
                )
            return JobOutcome(
                name=job.name, ok=True, value=value, attempts=attempt,
                elapsed_s=elapsed,
            )
        except JobTimeoutError as exc:
            timed_out = True
            last_error = str(exc)
            registry.counter("engine_job_timeouts_total").add(1)
            if recorder is not None:
                recorder.emit(
                    "job.timeout", job=job.name, attempt=attempt, timeout_s=policy.timeout_s
                )
        except Exception as exc:
            timed_out = False
            last_error = repr(exc)
    if not policy.quarantine:
        raise JobError(experiment, job.name, last_error)
    registry.counter("engine_jobs_quarantined_total").add(1)
    hb = heartbeat()
    if hb is not None:
        hb.add(0, quarantined=1)
    elapsed = perf_counter() - started
    if recorder is not None:
        recorder.emit(
            "job.quarantined",
            job=job.name,
            attempts=attempt,
            timed_out=timed_out,
            error=last_error,
            wall_s=round(elapsed, 6),
            cpu_s=round(process_time() - started_cpu, 6),
        )
    return JobOutcome(
        name=job.name, ok=False, error=last_error, attempts=attempt,
        timed_out=timed_out, elapsed_s=elapsed,
    )
