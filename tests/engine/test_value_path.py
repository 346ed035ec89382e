"""One value path: ``reduce`` receives the same object whoever ran the job.

``execute_job`` normalises every ok value through the checkpoint codec, so a
serial run, a process pool, a ``drs-worker`` and a ``--resume`` replay hand
``reduce`` values of identical type and ``repr`` *by construction* — at the
parent commit a ``np.float32`` stayed a ``float32`` on serial and the pool
and became a ``float`` over the wire and on resume, and a ``{1: 2.0}`` was
kept (and silently never checkpointed) locally but quarantined when
distributed.  The job functions are module-level: pool and ``drs-worker``
processes import them by name.
"""

import json
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine import (
    Checkpoint,
    DistributedExecutor,
    Job,
    JobError,
    JobPlan,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    experiment_specs,
)
from repro.engine.checkpoint import decode_value, encode_value
from repro.engine.chunk import ChunkResult
from repro.engine.retry import JobOutcome
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter

VALUES = {
    "float32": lambda: np.float32(0.1),
    "float64": lambda: np.float64(1.0) / 3,
    "bool_": lambda: np.bool_(True),
    "tuple": lambda: (1, 2.5, ("x", np.int64(7))),
    "nested-ndarray": lambda: {"grid": [np.arange(6, dtype=np.int32).reshape(2, 3)],
                               "p": (np.array([0.1, 0.2], dtype=np.float32),)},
    "int-keyed-dict": lambda: {1: 2.0},
    "set": lambda: {1, 2},
}
UNENCODABLE = {
    "int-keyed-dict": "TypeError('checkpointable dict values need string keys')",
    "set": "TypeError('job value of type set is not checkpointable')",
}


def _value(params, seed_seq):
    return VALUES[params["kind"]]()


def _plan(kinds=tuple(VALUES)):
    jobs = [Job(kind, _value, {"kind": kind}) for kind in kinds]
    return JobPlan(experiment="valuepath", seed=1, jobs=jobs, reduce=lambda v: v)


#: a retry of the unencodable jobs would sleep this out — 2 x 30 s — and fail the test
SLOW_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=30.0, jitter_frac=0.0)

BACKENDS = {
    "serial": SerialExecutor,
    "pool": partial(ParallelExecutor, workers=2),
    "distributed": partial(DistributedExecutor, spawn_workers=1),
}


def _seen(values):
    """What ``reduce`` can tell about the values it was handed: type and ``repr``, exactly."""
    return {name: (type(value).__qualname__, repr(value)) for name, value in values.items()}


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    path = tmp_path_factory.mktemp("valuepath") / "valuepath.checkpoint.jsonl"
    return SerialExecutor(policy=SLOW_RETRY).run(_plan(), checkpoint=Checkpoint(path)), path


@pytest.mark.parametrize("backend", ["pool", "distributed", "resumed"])
def test_reduce_receives_the_same_values_on_every_backend(backend, serial):
    reference, path = serial
    recorder = FlightRecorder(None, experiment="valuepath")
    set_flight_recorder(recorder)
    started = time.monotonic()
    try:
        if backend == "resumed":
            execution = SerialExecutor(policy=SLOW_RETRY).run(
                _plan(kinds=[k for k in VALUES if k not in UNENCODABLE]),
                checkpoint=Checkpoint(path),
            )
            assert sorted(execution.resumed) == sorted(execution.values)  # nothing executed
        else:
            execution = BACKENDS[backend](policy=SLOW_RETRY).run(_plan())
    finally:
        set_flight_recorder(None)
    assert time.monotonic() - started < 25.0, "an unencodable value was retried"
    assert _seen(execution.values) == _seen(reference.values)
    assert _seen(reference.values)["float32"] == ("float", "0.10000000149011612")
    assert _seen(reference.values)["float64"] == ("float", "0.3333333333333333")
    assert _seen(reference.values)["bool_"] == ("bool", "True")
    assert _seen(reference.values)["tuple"] == ("tuple", "(1, 2.5, ('x', 7))")
    assert reference.values["nested-ndarray"]["grid"][0].dtype == np.int32
    assert not recorder.by_kind.get("job.retry")
    if backend != "resumed":
        assert sorted(execution.quarantined) == sorted(reference.quarantined) == sorted(UNENCODABLE)
        assert {k: execution.attempts[k] for k in UNENCODABLE} == dict.fromkeys(UNENCODABLE, 1)
        errors = {e["job"]: e["error"] for e in recorder.drain() if e["kind"] == "job.quarantined"}
        assert errors == UNENCODABLE
    # every value reduce saw is in the checkpoint: Checkpoint.commit skipped nothing
    assert sorted(json.loads(line)["job"] for line in path.read_text().splitlines()) == sorted(
        reference.values
    )


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("kind", list(UNENCODABLE))
def test_an_unencodable_value_is_the_same_job_error_under_fail_fast(backend, kind):
    with pytest.raises(JobError) as excinfo:
        BACKENDS[backend]().run(_plan(kinds=["float32", kind]))
    assert (excinfo.value.job_name, excinfo.value.cause) == (kind, UNENCODABLE[kind])


# ------------------------------------------------------------- properties
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=False), st.text(),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-2**31, 2**31 - 1).map(np.int32), st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(max_dims=2, max_side=3),
               elements={"allow_nan": False}),
)
_keys = st.text().filter(lambda key: key not in ("__tuple__", "__ndarray__"))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=8,
)


def _same(a, b):
    """Equal, with equal types all the way down (``==`` alone equates 1, 1.0 and True)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)
    return a == b


@given(_values)
def test_the_codec_is_idempotent_over_every_supported_nest(value):
    once = decode_value(encode_value(value))
    assert _same(decode_value(encode_value(once)), once)
    # and JSON (the wire, the checkpoint) carries the encoded form unchanged
    assert _same(decode_value(json.loads(json.dumps(encode_value(value)))), once)


@st.composite
def _chunks(draw):
    registry = MetricsRegistry()
    for i, amount in enumerate(draw(st.lists(st.floats(0, 1e6), max_size=3))):
        registry.counter(f"c{i}", {"category": "x"} if i else None).add(amount)
    registry.gauge("rate").set(draw(st.floats(-1e6, 1e6)))
    hist = registry.histogram("lat", buckets=draw(st.sampled_from([(0.1, 1.0), (1.0,)])))
    for seen in draw(st.lists(st.floats(0, 10), max_size=4)):
        hist.observe(seen)
    reporter = ProgressReporter("prop", interval_s=1e12, clock=lambda: 1.0)
    reporter.add(draw(st.integers(0, 10**9)), retries=draw(st.integers(0, 5)))
    recorder = FlightRecorder(None, experiment="prop")
    outcomes = []
    for i, value in enumerate(draw(st.lists(_values, max_size=3))):
        ok = draw(st.booleans())
        outcomes.append(JobOutcome(f"job/{i}", ok, decode_value(encode_value(value)) if ok else None,
                                   None if ok else "boom", attempts=draw(st.integers(1, 4)),
                                   timed_out=not ok and draw(st.booleans()),
                                   elapsed_s=draw(st.floats(0, 100))))
        recorder.emit("job.completed", job=f"job/{i}", ok=ok, attempts=outcomes[-1].attempts)
    return ChunkResult(outcomes, registry, reporter.summary(), recorder.drain(),
                       wall_s=draw(st.floats(0, 100)), cpu_s=draw(st.floats(0, 100)))


@given(_chunks())
@settings(max_examples=50)
def test_a_chunk_survives_its_wire_form(chunk):
    wire = chunk.to_wire()
    back = ChunkResult.from_wire(json.loads(json.dumps(wire)))
    assert back.registry.snapshot() == chunk.registry.snapshot()
    assert back.registry.render_prometheus() == chunk.registry.render_prometheus()
    assert (back.heartbeat, back.flight) == (chunk.heartbeat, chunk.flight)
    assert (back.wall_s, back.cpu_s) == (chunk.wall_s, chunk.cpu_s)
    assert len(back.outcomes) == len(chunk.outcomes)
    for got, sent in zip(back.outcomes, chunk.outcomes):
        assert _same(got.value, sent.value)
        got.value = sent.value = None
        assert got == sent
    assert ChunkResult.from_wire(wire).to_wire() == wire  # pickled (the pool) or framed: one form


# ------------------------------------------- the real traffic, spec by spec
PLAN_SPECS = [spec for spec in experiment_specs() if spec.parallel]
#: one replicate per cell keeps the two DES-backed validations inside the tier-1 budget
CUT = {"desval": {"replicates": 1}, "desval-curve": {"replicates": 1}}


@pytest.mark.parametrize("spec", PLAN_SPECS, ids=[spec.name for spec in PLAN_SPECS])
def test_every_real_job_value_survives_the_codec(spec, tmp_path):
    """``--resume`` on a complete run replays every value through the codec: same CSVs."""
    kwargs = {**spec.kwargs("quick"), **CUT.get(spec.name, {})}
    path = tmp_path / f"{spec.name}.checkpoint.jsonl"
    first = spec.run(**kwargs, executor=SerialExecutor(), checkpoint=Checkpoint(path))
    jobs = first.meta["engine"]["jobs"]
    assert jobs and not first.meta["engine"]["resumed"] and not first.meta["engine"]["quarantined"]
    assert len(path.read_text().splitlines()) == jobs  # every value encoded
    replay = spec.run(**kwargs, executor=SerialExecutor(), checkpoint=Checkpoint(path))
    assert len(replay.meta["engine"]["resumed"]) == jobs  # every value decoded, nothing executed
    first.write(tmp_path / "first")
    replay.write(tmp_path / "replay")
    csvs = sorted(p.name for p in Path(tmp_path / "first").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (tmp_path / "replay" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()
