"""Job plans: sweep experiments decomposed into independent units of work.

A sweep-style experiment (a Monte Carlo grid, a replicate batch, a DES size
sweep) is embarrassingly parallel across its grid points.  The experiment
module expresses that by building a :class:`JobPlan`: a list of
:class:`Job` entries — each a picklable module-level function plus a params
dict — and a ``reduce`` callable that assembles the finished values into the
:class:`~repro.experiments.base.ExperimentResult`.

Granularity
-----------

A job should be the *cheapest independently reproducible* unit, not the
smallest expressible one.  The Monte Carlo sweeps used to ship one job per
(N, f) grid point; the common-random-numbers kernel
(:func:`repro.analysis.montecarlo.simulate_grid`) evaluates the entire
f-family at one N from a single sampling pass, so those plans now emit one
*curve-level* job per N whose value is a ``{str(f): estimate}`` row — an
order of magnitude fewer jobs to pickle, schedule, and checkpoint, with the
f-dimension's sampling cost paid once in-kernel.  :func:`curve_value` is the
reduction-side accessor for such row values.

Seeding contract
----------------

A job never carries a generator.  Its random stream is derived at execution
time from the plan's root seed via
:func:`repro.simkit.rng.spawn_seedseq(root_seed, experiment, job_name)
<repro.simkit.rng.spawn_seedseq>`, so a job's draws depend only on
``(root seed, experiment name, job name)`` — never on the executor backend,
the worker count, scheduling order, or which other jobs ran.  Running a
subset of the grid therefore reproduces exactly the corresponding slice of
the full run, and serial, process-pool and distributed backends produce
byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.simkit.rng import seed_fingerprint, spawn_seedseq

#: Signature every job function implements: ``fn(params, seed_seq) -> value``.
#: ``params`` is the job's own params dict; ``seed_seq`` is its spawned child
#: :class:`numpy.random.SeedSequence` (deterministic jobs may ignore it).
JobFn = Callable[[dict[str, Any], np.random.SeedSequence], Any]


def curve_value(
    values: dict[str, Any], job_name: str, key: str, default: float = float("nan")
) -> Any:
    """One entry of a curve-level job's row value, quarantine-tolerant.

    Curve-level jobs return ``{key: value}`` rows (string keys — the
    checkpoint codec round-trips only string-keyed dicts).  A quarantined
    job is absent from ``values`` entirely; a key outside the job's grid
    slice is absent from its row.  Both read as ``default`` so sweep
    reducers keep their grid shape with NaN holes.
    """
    row = values.get(job_name)
    if not isinstance(row, dict):
        return default
    return row.get(key, default)


def cell_point(
    values: dict[str, Any], job_name: str, key: str, default: float = float("nan")
) -> float:
    """The point estimate of a curve-level row entry, precision-row tolerant.

    Plain sweep jobs store a bare float per key; precision-aware jobs
    (``--target-ci`` runs) store the cell's full
    :meth:`~repro.obs.precision.CellPrecision.to_row` dict with the point
    under ``"p"``.  Reducers that only need the estimate read through this
    accessor so one reduction serves both row shapes, with the same
    quarantine-tolerant ``default`` semantics as :func:`curve_value`.
    """
    value = curve_value(values, job_name, key, default)
    if isinstance(value, dict):
        return value.get("p", default)
    return value


@dataclass(frozen=True)
class Job:
    """One independent unit of work inside a plan.

    ``fn`` must be a module-level function (process-pool executors pickle
    jobs) returning what the checkpoint codec carries (docs/engine.md, "One
    value path"); ``name`` must be unique within the plan — it keys both the
    result and the job's spawned seed.
    """

    name: str
    fn: JobFn
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class JobPlan:
    """An experiment decomposed into jobs plus the reduction over their values.

    ``reduce`` receives ``{job.name: value}`` with every job present and runs
    in the coordinating process (it may close over local state; only jobs
    cross process boundaries).
    """

    experiment: str
    seed: int
    jobs: list[Job]
    reduce: Callable[[dict[str, Any]], Any]
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"plan {self.experiment!r} has duplicate job names: {dupes}")

    def job_seedseq(self, job: Job) -> np.random.SeedSequence:
        """The deterministic child seed sequence for one job."""
        return spawn_seedseq(self.seed, self.experiment, job.name)

    def job_seeds(self) -> dict[str, int]:
        """Manifest payload: 64-bit seed fingerprint per job name."""
        return {job.name: seed_fingerprint(self.job_seedseq(job)) for job in self.jobs}
