"""Serial and process-pool executors agree on values and aggregate telemetry."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    Job,
    JobError,
    JobPlan,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    run_plan,
)
from repro.engine import chunk as chunk_module
from repro.engine.chunk import guided_chunks, guided_size
from repro.obs.metrics import MetricsRegistry, ensure_core_metrics, use_registry
from repro.obs.progress import ProgressReporter, set_heartbeat


def _draw(params, seed_seq):
    """Module-level (picklable) job: a few deterministic draws + metrics."""
    from repro.obs.metrics import current_registry
    from repro.obs.progress import heartbeat

    current_registry().counter("mc_iterations_total").add(params["k"])
    hb = heartbeat()
    if hb is not None:
        hb.add(params["k"])
    return np.random.default_rng(seed_seq).random(params["k"]).sum()


def _boom(params, seed_seq):
    raise RuntimeError("kaput")


def _plan(names=("a", "b", "c", "d", "e"), seed=3, k=4):
    jobs = [Job(name=n, fn=_draw, params={"k": k}) for n in names]
    return JobPlan(experiment="toy", seed=seed, jobs=jobs, reduce=lambda v: v)


def test_serial_and_parallel_values_identical():
    serial = SerialExecutor().run(_plan())
    parallel = ParallelExecutor(workers=2).run(_plan())
    assert serial.values == parallel.values
    assert serial.backend == "serial"
    assert parallel.backend == "process-pool"
    assert parallel.workers == 2


def test_values_independent_of_worker_count_and_chunking(monkeypatch):
    baseline = SerialExecutor().run(_plan()).values
    for workers, chunks in ((2, 1), (2, 4), (3, 2)):
        monkeypatch.setattr(chunk_module, "CHUNKS_PER_WORKER", chunks)
        got = ParallelExecutor(workers=workers).run(_plan()).values
        assert got == baseline


def test_execution_reports_job_seeds():
    plan = _plan()
    execution = SerialExecutor().run(plan)
    assert execution.job_seeds == plan.job_seeds()
    assert set(execution.job_seeds) == {"a", "b", "c", "d", "e"}


def test_parallel_merges_worker_metrics_and_heartbeats():
    registry = ensure_core_metrics(MetricsRegistry())
    reporter = ProgressReporter("toy", interval_s=1e12)
    set_heartbeat(reporter)
    try:
        with use_registry(registry):
            ParallelExecutor(workers=2).run(_plan(k=5))
    finally:
        set_heartbeat(None)
    # 5 jobs x 5 iterations each, merged across workers
    assert registry.counter("mc_iterations_total").value == 25
    summary = reporter.summary()
    assert summary["trials"] == 25
    assert summary["counts"]["jobs"] == 5


def test_serial_job_failure_carries_attribution():
    plan = JobPlan(
        experiment="toy",
        seed=0,
        jobs=[Job("ok", _draw, {"k": 1}), Job("bad", _boom)],
        reduce=lambda v: v,
    )
    with pytest.raises(JobError, match="'bad' of experiment 'toy'"):
        SerialExecutor().run(plan)


def test_parallel_job_failure_propagates():
    plan = JobPlan(experiment="toy", seed=0, jobs=[Job("bad", _boom)], reduce=lambda v: v)
    with pytest.raises(JobError, match="'bad'"):
        ParallelExecutor(workers=2).run(plan)


def test_run_plan_reduces_and_stamps_engine_meta():
    class Result:
        def __init__(self, values):
            self.values = values
            self.meta = {}

    plan = JobPlan(experiment="toy", seed=9, jobs=[Job("a", _draw, {"k": 2})], reduce=Result)
    result = run_plan(plan)
    assert set(result.values) == {"a"}
    engine = result.meta["engine"]
    assert engine["backend"] == "serial"
    assert engine["jobs"] == 1
    assert engine["root_seed"] == 9
    assert engine["job_seeds"] == plan.job_seeds()


def test_make_executor_mapping():
    assert isinstance(make_executor(None), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    pool = make_executor(3)
    assert isinstance(pool, ParallelExecutor)
    assert pool.workers == 3
    assert make_executor(0).workers >= 1  # "all cores", serial on 1-core hosts
    with pytest.raises(ValueError):
        make_executor(-2)


def test_chunking_covers_all_jobs_exactly_once():
    jobs = [Job(name=f"j{i}", fn=_draw, params={"k": 1}) for i in range(11)]
    for fleet in (1, 2, 3, 16):
        chunks = guided_chunks(jobs, fleet)
        flat = [job.name for chunk in chunks for job in chunk]
        assert flat == [f"j{i}" for i in range(11)]
        # each chunk is what a coordinator's pull would take at that point of the queue
        taken = [sum(map(len, chunks[:i])) for i in range(len(chunks))]
        assert [len(c) for c in chunks] == [guided_size(11 - done, fleet) for done in taken]
        assert guided_chunks([], fleet) == []
    assert [len(c) for c in guided_chunks(jobs, 2)] == [2, 2, 1, 1, 1, 1, 1, 1, 1]


def test_a_serial_executor_does_not_load_multiprocessing():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
    code = (
        "import sys\n"
        "from repro.engine import make_executor\n"
        "make_executor(1)\n"
        "serial = 'multiprocessing' in sys.modules\n"
        "make_executor(2)\n"
        "print(serial, 'multiprocessing' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["False", "True"]  # the pool's import happens when a pool is built
