"""The coordinator's core, driven directly: a model test of every transition.

A hypothesis state machine joins, pulls, reports (ghost, duplicate and stray
names included), loses connections three ways, says goodbye, fails a job and
ticks the fleet, while the ``PlanDriver`` calls the core asks for run — in
order, as the shell's settle thread runs them — against a real driver, or
are refused.  After every step the plan's jobs must be partitioned, ``done``
must mean what it says and agree with the driver, a refused frame must have
changed nothing, and no job may be handed to ``settle`` twice.
"""

import ast
import json
from collections import deque
from dataclasses import fields
from itertools import count
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.engine import coordinator
from repro.engine.chunk import ChunkResult
from repro.engine.coordinator import (
    FRAMES,
    PROTOCOL_VERSION,
    Call,
    Close,
    CoordinatorCore,
    Finished,
    Lost,
    Received,
    Send,
    Tick,
    decode_frame,
)
from repro.engine.driver import PlanDriver
from repro.engine.jobs import Job, JobPlan
from repro.engine.retry import JobOutcome, RetryPolicy
from repro.obs.metrics import MetricsRegistry, use_registry

ROOT = Path(__file__).resolve().parents[2]
QUARANTINE = RetryPolicy(max_attempts=1, quarantine=True)
FLEET = 2


def _draw(params, seed_seq):
    return float(np.random.default_rng(seed_seq).random())


def _plan():
    jobs = [Job(f"job/{i}", _draw) for i in range(8)]
    return JobPlan(experiment="model", seed=3, jobs=jobs, reduce=lambda v: v)


def _state(core):
    """Everything a transition may change, comparable."""
    return (
        [job.name for job in core.pending],
        {w.wid: (list(w.held), w.jobs, w.wall_s, w.cpu_s, w.alive) for w in core.workers.values()},
        {t: [job.name for job in jobs] for t, (_, jobs, _) in core.settling.items()},
        set(core.settled),
        set(core.given_up),
        dict(core.conns),
        dict(core.requeues),
        dict(core.previous_owner),
        repr(core.failure),
        (core.jobs_stolen, core.respawns, core.unreplaced),
    )


class CoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        with use_registry(MetricsRegistry()):
            self.driver = PlanDriver(_plan(), None, "distributed", FLEET)
        self.core = CoordinatorCore(self.driver.plan, self.driver.remaining(), QUARANTINE, FLEET)
        #: the driver calls asked for and not yet run, in order
        self.calls: deque[Call] = deque()
        self.conns = count(1)
        self.dialled = 0
        #: connections whose reader is still reading
        self.open: set[int] = set()

    def handle(self, event):
        before = _state(self.core)
        effects = self.core.handle(event)
        if isinstance(event, Received) and [type(e) for e in effects] == [Close]:
            assert effects[0].why, "a frame was refused without a reason"
            assert _state(self.core) == before, "a refused frame changed the core"
        for effect in effects:
            if isinstance(effect, Send):
                # what the core sends is what the worker end decodes
                decode_frame(json.loads(json.dumps(effect.frame)), "coordinator")
            elif isinstance(effect, Call):
                self.calls.append(effect)
            elif isinstance(effect, Close) and effect.conn in self.open:
                self.open.discard(effect.conn)
                self.handle(Lost(effect.conn))  # its reader sees the hang-up

    def joined(self):
        return [w for w in self.core.workers.values() if w.alive]

    def unsettled(self):
        core = self.core
        held = {name for w in core.workers.values() for name in w.held}
        settling = {job.name for _, jobs, _ in core.settling.values() for job in jobs}
        return {job.name for job in core.pending} | held | settling

    # ------------------------------------------------------------------ rules
    @precondition(lambda self: self.dialled < 6)
    @rule(protocol=st.sampled_from([PROTOCOL_VERSION, PROTOCOL_VERSION, PROTOCOL_VERSION - 1]))
    def join(self, protocol):
        self.dialled += 1
        conn = next(self.conns)
        self.open.add(conn)
        self.handle(Received(conn, "hello", {"host": "model", "pid": conn, "protocol": protocol}))

    @precondition(lambda self: self.joined())
    @rule(data=st.data())
    def pull(self, data):
        worker = data.draw(st.sampled_from(self.joined()))
        self.handle(Received(worker.conn, "next", {}))

    @precondition(lambda self: self.joined())
    @rule(data=st.data())
    def report(self, data):
        worker = data.draw(st.sampled_from(self.joined()))
        held = sorted(worker.held) or ["ghost"]
        answered = data.draw(st.lists(st.sampled_from(held), min_size=1, unique=True))
        # ghosts and duplicates go through to settle; a name someone else holds is stray
        others = sorted(self.unsettled() - set(worker.held))
        extra = data.draw(
            st.lists(st.sampled_from(["ghost", *sorted(self.core.settled), *others]), max_size=1)
        )
        oks = [data.draw(st.booleans()) for _ in answered + extra]
        outcomes = [
            JobOutcome(name, ok=ok, value=0.5 if ok else None, error=None if ok else "failed")
            for name, ok in zip(answered + extra, oks)
        ]
        self.handle(Received(worker.conn, "chunk_done", ChunkResult(outcomes, wall_s=0.25)))

    def run(self, call):
        if call.ticket is not None:
            answered = {job.name for job in self.core.settling[call.ticket][1]}
            assert answered <= self.driver.unsettled, "a job was handed to settle twice"
        getattr(self.driver, call.method)(*call.args, **(call.fields or {}))
        if call.ticket is not None:
            self.handle(Finished(call.ticket))

    @precondition(lambda self: self.calls)
    @rule()
    def driver_call_completes(self):
        self.run(self.calls.popleft())

    @precondition(lambda self: any(call.ticket is not None for call in self.calls))
    @rule()
    def settle_is_refused(self):
        while self.calls[0].ticket is None:  # the calls ahead of it cannot be refused
            self.run(self.calls.popleft())
        self.handle(Finished(self.calls.popleft().ticket, "rows the run's registry refuses"))

    @precondition(lambda self: self.joined())
    @rule(data=st.data(), reason=st.sampled_from(["disconnect", "heartbeat-timeout"]))
    def connection_lost(self, data, reason):
        worker = data.draw(st.sampled_from(self.joined()))
        self.open.discard(worker.conn)
        self.handle(Lost(worker.conn, reason))

    @precondition(lambda self: [w for w in self.joined() if not w.held])
    @rule(data=st.data())
    def goodbye(self, data):
        worker = data.draw(st.sampled_from([w for w in self.joined() if not w.held]))
        self.handle(Received(worker.conn, "goodbye", {}))

    @precondition(lambda self: self.joined() and len(self.core.settled) >= 4)
    @rule(data=st.data())
    def job_error(self, data):
        worker = data.draw(st.sampled_from(self.joined()))
        error = {"experiment": "model", "job": "job/0", "cause": "boom"}
        self.handle(Received(worker.conn, "job_error", error))

    @rule(exited=st.integers(0, 1), running=st.integers(0, FLEET))
    def tick(self, exited, running):
        self.handle(Tick(exited, running))

    # ------------------------------------------------------------- invariants
    @invariant()
    def the_plan_is_partitioned(self):
        core = self.core
        parts = [
            [job.name for job in core.pending],
            [name for w in core.workers.values() for name in w.held],
            [job.name for _, jobs, _ in core.settling.values() for job in jobs],
            sorted(core.settled),
            sorted(core.given_up),
        ]
        assert sorted(n for part in parts for n in part) == sorted(j.name for j in _plan().jobs)

    @invariant()
    def done_means_nothing_unsettled_or_a_failure(self):
        unsettled = self.unsettled()
        assert self.core.done == (self.core.failure is not None or not unsettled)
        if not self.calls:  # the driver has caught up with every call: it agrees
            assert self.driver.unsettled == unsettled

    @invariant()
    def attribution_sums_to_the_settled_jobs(self):
        jobs = sum(h["jobs"] for h in self.core.host_attribution().values())
        assert jobs == len(self.core.settled)


TestCoreModel = CoreModel.TestCase
TestCoreModel.settings = settings(
    derandomize=True, max_examples=120, stateful_step_count=50, deadline=None
)


# ---------------------------------------------------------------- structure
def test_the_core_does_no_io():
    tree = ast.parse(Path(coordinator.__file__).read_text())
    imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.partition(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not imported & {"socket", "select", "threading", "queue", "subprocess", "time"}


def frames_table():
    """``FRAMES`` as the Markdown table ``docs/engine.md`` shows."""
    rows = ["| type | direction | legal in | fields |", "| --- | --- | --- | --- |"]
    for kind, frame_type in FRAMES.items():
        shown = [f"`{name}: {label}{''.join(f' = {d!r}' for d in default)}`"
                 for name, label, _, *default in frame_type.fields]
        if frame_type.decoder is not None:
            shown = ["`ChunkResult.from_wire`: " + ", ".join(
                f"`{f.name}`" for f in fields(ChunkResult))]
        receiver = "coordinator" if frame_type.sender == "worker" else "worker"
        rows.append(f"| `{kind}` | {frame_type.sender} → {receiver} "
                    f"| {', '.join(frame_type.states)} | {', '.join(shown)} |")
    return "\n".join(rows)


def test_the_frame_table_is_declared_once_and_documented_as_declared():
    assert len(FRAMES) == 10
    assert {t.sender for t in FRAMES.values()} == {"worker", "coordinator"}
    table = frames_table()
    assert table.count("\n") == len(FRAMES) + 1
    assert table in (ROOT / "docs" / "engine.md").read_text()
