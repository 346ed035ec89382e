"""Contracts of the event core: spent events, ``pop_due``, the ``run`` rules.

The bug tests at the top failed before the queue learnt that a popped or
cleared event is *spent*; the tables further down were recorded from the
loop that ``pop_due`` replaced and pin its semantics value for value.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.drs import install_drs
from repro.experiments.desvalidation import VALIDATION_CONFIG
from repro.netsim import build_dual_backplane_cluster
from repro.obs import MetricsRegistry, install_profiling, uninstall_profiling, use_registry
from repro.protocols import install_stacks
from repro.simkit import EventQueue, ScheduleInPastError, Simulator

INF = math.inf


# ------------------------------------------------- cancelling a spent event
def test_cancelling_a_fired_event_does_not_drop_a_live_one():
    sim = Simulator()
    fired = []
    a = sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run(until=1.5)
    sim.cancel(a)  # already fired: nothing left to cancel
    assert sim.pending == 1
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 2.0
    assert not a.cancelled


def test_cancelling_a_cleared_event_keeps_len_non_negative():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.clear()
    q.cancel(ev)
    assert len(q) == 0
    assert not q


def test_cancelling_an_event_inside_its_own_callback_is_a_no_op():
    sim = Simulator()
    fired = []
    handle = []

    def first():
        fired.append("first")
        sim.cancel(handle[0])

    handle.append(sim.schedule(1.0, first))
    sim.schedule(2.0, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second"]
    assert sim.pending == 0


# ----------------------------------------------- queue vs a sorted-list model
class ModelQueue:
    """Reference: a plain list, re-sorted on every read."""

    def __init__(self):
        self.rows = []  # [time, priority, seq, state] with state live/cancelled/spent
        self.seq = 0

    def push(self, time, priority):
        row = [time, priority, self.seq, "live"]
        self.seq += 1
        self.rows.append(row)
        return row

    def live(self):
        return sorted(r for r in self.rows if r[3] == "live")

    def cancel(self, row):
        if row[3] == "live":
            row[3] = "cancelled"

    def pop_due(self, until):
        live = self.live()
        if not live or live[0][0] > until:
            return None
        live[0][3] = "spent"
        return live[0]

    def clear(self):
        for row in self.rows:
            if row[3] == "live":
                row[3] = "spent"


_times = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5, 7.0])
_ops = st.one_of(
    st.tuples(st.just("push"), _times, st.integers(-2, 2)),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("pop_due"), st.one_of(_times, st.just(INF), st.just(-1.0))),
    st.tuples(st.just("clear")),
)


@given(ops=st.lists(_ops, max_size=120))
def test_queue_matches_sorted_list_model(ops):
    q, model = EventQueue(), ModelQueue()
    handles = []  # (Event, model row), spent and cancelled ones included
    for op in ops:
        if op[0] == "push":
            handles.append((q.push(op[1], lambda: None, priority=op[2]), model.push(op[1], op[2])))
        elif op[0] == "cancel":
            if handles:
                ev, row = handles[op[1] % len(handles)]
                q.cancel(ev)
                model.cancel(row)
        elif op[0] == "pop":
            want = model.pop_due(INF)
            if want is None:
                with pytest.raises(IndexError):
                    q.pop()
            else:
                assert q.pop().seq == want[2]
        elif op[0] == "pop_due":
            want, got = model.pop_due(op[1]), q.pop_due(op[1])
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.time, got.priority, got.seq) == tuple(want[:3])
                assert not got.cancelled
        else:
            q.clear()
            model.clear()
        assert len(q) == len(model.live()) >= 0
        assert bool(q) == bool(model.live())
    # what is left comes out in model order
    rest = [ev.seq for ev in iter(lambda: q.pop_due(INF), None)]
    assert rest == [row[2] for row in model.live()]


def test_heap_entries_never_compare_events():
    # seq is unique, so a (time, priority, seq, event) entry is ordered before
    # the event itself is ever looked at: events are not orderable at all, and
    # fifty full ties still come out in push order
    q = EventQueue()
    events = [q.push(1.0, lambda: None) for _ in range(50)]
    with pytest.raises(TypeError):
        events[0] < events[1]
    assert [q.pop().seq for _ in range(50)] == list(range(50))


# ------------------------------------------------------ schedule range check
@pytest.mark.parametrize("bad", [-1.0, 0.999, math.nan, math.inf, -math.inf])
def test_schedule_at_rejects_past_and_non_finite_times(bad):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ScheduleInPastError):
        sim.schedule_at(bad, lambda: None)
    assert sim.pending == 0


@pytest.mark.parametrize("bad", [-1e-9, -1.0, math.nan, math.inf, -math.inf])
def test_schedule_rejects_negative_and_non_finite_delays(bad):
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleInPastError):
        sim.schedule(bad, lambda: None)
    assert sim.pending == 0


def test_scheduling_at_the_current_instant_is_accepted():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(sim.now, lambda: fired.append("at")))
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append("in")))
    sim.run()
    assert fired == ["at", "in"]
    assert sim.now == 1.0


@given(
    now=st.floats(0, 1e6, allow_nan=False),
    when=st.floats(allow_nan=True, allow_infinity=True),
)
def test_schedule_at_accepts_exactly_now_to_finite(now, when):
    sim = Simulator()
    sim.run(until=now)
    if now <= when < INF:
        assert sim.schedule_at(when, lambda: None).time == when
    else:
        with pytest.raises(ScheduleInPastError):
            sim.schedule_at(when, lambda: None)


# ------------------------------------------- run(until=, max_events=) rules
def _three_events(times=(1.0, 2.0, 3.0), stop_at=None, cancel=()):
    sim = Simulator()
    fired = []
    events = {}
    for t in times:

        def callback(t=t):
            fired.append(t)
            if t == stop_at:
                sim.stop()

        events[t] = sim.schedule_at(t, callback)
    for t in cancel:
        sim.cancel(events[t])
    return sim, fired


# (case, build kwargs, run kwargs, fired, now, pending) — recorded from the
# peek_time + step loop this table outlives
RUN_TABLE = [
    ("drains", {}, {}, [1.0, 2.0, 3.0], 3.0, 0),
    ("drains, until beyond", {}, {"until": 5.0}, [1.0, 2.0, 3.0], 5.0, 0),
    ("drains exactly on budget", {}, {"until": 5.0, "max_events": 3}, [1.0, 2.0, 3.0], 5.0, 0),
    ("drains, budget to spare", {}, {"max_events": 10}, [1.0, 2.0, 3.0], 3.0, 0),
    ("head beyond until", {}, {"until": 2.5}, [1.0, 2.0], 2.5, 1),
    ("until equals an event time", {}, {"until": 2.0}, [1.0, 2.0], 2.0, 1),
    ("until before first event", {}, {"until": 0.5}, [], 0.5, 3),
    ("cancelled head, live head beyond until", {"cancel": (1.0,)}, {"until": 1.5}, [], 1.5, 2),
    ("all cancelled", {"cancel": (1.0, 2.0, 3.0)}, {"until": 1.5}, [], 1.5, 0),
    ("budget spent, events left", {}, {"max_events": 2}, [1.0, 2.0], 2.0, 1),
    ("budget spent, events left, until", {}, {"until": 5.0, "max_events": 2}, [1.0, 2.0], 2.0, 1),
    ("budget spent before until's head", {}, {"until": 1.5, "max_events": 1}, [1.0], 1.0, 2),
    ("budget spent and head beyond until", {}, {"until": 2.5, "max_events": 2}, [1.0, 2.0], 2.0, 1),
    ("zero budget", {}, {"max_events": 0}, [], 0.0, 3),
    ("zero budget, until", {}, {"until": 5.0, "max_events": 0}, [], 0.0, 3),
    ("stop inside a callback", {"stop_at": 2.0}, {}, [1.0, 2.0], 2.0, 1),
    ("stop inside a callback, until", {"stop_at": 2.0}, {"until": 5.0}, [1.0, 2.0], 2.0, 1),
    ("stop inside the last callback, until", {"stop_at": 3.0}, {"until": 5.0}, [1.0, 2.0, 3.0], 3.0, 0),
    ("stop and budget on the same event", {"stop_at": 2.0}, {"until": 5.0, "max_events": 2}, [1.0, 2.0], 2.0, 1),
    ("empty queue", {"times": ()}, {}, [], 0.0, 0),
    ("empty queue, until", {"times": ()}, {"until": 4.0}, [], 4.0, 0),
    ("empty queue, until, zero budget", {"times": ()}, {"until": 4.0, "max_events": 0}, [], 4.0, 0),
]


@pytest.mark.parametrize("profiled", [False, True], ids=["bare", "profiled"])
@pytest.mark.parametrize("case", RUN_TABLE, ids=[row[0] for row in RUN_TABLE])
def test_run_rules(case, profiled):
    _name, build, run, fired, now, pending = case
    sim, log = _three_events(**build)
    if profiled:
        sim.enable_profiling()
    sim.run(**run)
    assert (log, sim.now, sim.pending) == (fired, now, pending)
    if profiled:
        assert sim.profile.events == len(fired)


def test_run_resumes_after_a_spent_budget():
    sim, log = _three_events()
    sim.run(max_events=1)
    sim.run(until=10.0)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 10.0


def test_step_fires_one_event_and_skips_cancelled_heads():
    sim, log = _three_events(cancel=(1.0,))
    assert sim.step() is True
    assert (log, sim.now, sim.pending) == ([2.0], 2.0, 1)
    assert sim.step() is True
    assert sim.step() is False
    assert sim.now == 3.0


def test_profile_survives_a_raising_callback():
    sim = Simulator()
    prof = sim.enable_profiling()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        sim.run()
    # only callbacks that returned are accounted, and run time still is
    assert prof.events == 1
    assert sum(n for n, _ in prof.by_category.values()) == 1
    assert prof.run_seconds > 0


# ------------------------------------------------ profiled == unprofiled
def _drs_scenario():
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 4)
    stacks = install_stacks(cluster)
    install_drs(cluster, stacks, VALIDATION_CONFIG)
    sim.run(until=0.3)
    cluster.node(1).nics[0].fail()
    sim.run(until=0.6, max_events=2_000)
    trace = [(e.time, e.category, sorted(e.fields)) for e in cluster.trace.iter_entries()]
    hubs = [(hub.bits_carried.value, hub.frames_carried.events) for hub in cluster.backplanes]
    return sim, trace, hubs


def test_profiled_and_unprofiled_runs_fire_the_same_events():
    bare_sim, bare_trace, bare_hubs = _drs_scenario()
    assert bare_sim.profile is None
    reg = MetricsRegistry()
    install_profiling()
    try:
        with use_registry(reg):
            sim, trace, hubs = _drs_scenario()
    finally:
        uninstall_profiling()
    assert (trace, hubs, sim.now, sim.pending) == (bare_trace, bare_hubs, bare_sim.now, bare_sim.pending)

    prof = sim.profile
    assert prof.events == sum(n for n, _ in prof.by_category.values()) > 0
    assert prof.callback_seconds == pytest.approx(sum(s for _, s in prof.by_category.values()))
    assert 0 < prof.callback_seconds <= prof.run_seconds
    # the published names, label sets and event counts
    sim_rows = {
        (name, tuple(sorted(labels.items()))): obj
        for name, labels, _kind, obj in reg
        if name.startswith("sim_")
    }
    categories = sorted(prof.by_category)
    assert {"process", "backplane", "icmp"} <= set(categories)
    expected = {("sim_events_total", ()), ("sim_callback_seconds_total", ()), ("sim_run_seconds_total", ())}
    expected |= {("sim_events_per_second", ())}
    for category in categories:
        expected |= {
            ("sim_events_total", (("category", category),)),
            ("sim_callback_seconds_total", (("category", category),)),
        }
    assert set(sim_rows) == expected
    assert sim_rows[("sim_events_total", ())].value == prof.events
    for category in categories:
        assert sim_rows[("sim_events_total", (("category", category),))].value == prof.by_category[category][0]
