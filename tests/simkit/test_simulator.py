"""Unit tests for the simulator event loop."""

import pytest

from repro.simkit import ScheduleInPastError, Simulator


def test_run_drains_queue_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(7.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [7.5]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ScheduleInPastError):
        sim.schedule_at(1.0, lambda: None)


def test_schedule_nonfinite_raises():
    sim = Simulator()
    with pytest.raises(ScheduleInPastError):
        sim.schedule_at(float("nan"), lambda: None)
    with pytest.raises(ScheduleInPastError):
        sim.schedule(float("inf"), lambda: None)


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(10.0, lambda: fired.append("b"))
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == 5.0
    # the later event survives and fires on the next run
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 10.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 3.0:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_same_time_rescheduling_is_fifo():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("first"), sim.schedule(0.0, lambda: fired.append("third"))))
    sim.schedule(1.0, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "third"]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending == 1


def test_max_events_budget():
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run(max_events=100)
    assert count[0] == 100


def test_cancel_scheduled_event():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, lambda: fired.append("x"))
    sim.cancel(ev)
    sim.run()
    assert fired == []


def test_step_returns_false_on_empty():
    assert Simulator().step() is False


def test_max_events_exhaustion_does_not_advance_clock_to_until():
    # when the event budget runs out first, the clock must stay at the last
    # fired event, not jump to `until`
    sim = Simulator()
    for i in range(1, 11):
        sim.schedule(float(i), lambda: None)
    sim.run(until=100.0, max_events=3)
    assert sim.now == 3.0
    assert sim.pending == 7


def test_until_wins_when_budget_is_larger():
    sim = Simulator()
    fired = []
    for i in range(1, 11):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.run(until=4.5, max_events=100)
    assert fired == [1, 2, 3, 4]
    assert sim.now == 4.5


def test_resume_after_max_events_continues_cleanly():
    sim = Simulator()
    fired = []
    for i in range(1, 6):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.run(until=10.0, max_events=2)
    assert fired == [1, 2] and sim.now == 2.0
    sim.run(until=10.0)
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 10.0


def test_stop_in_callback_does_not_advance_clock_to_until():
    # stop() halts before the next event fires AND before the final
    # clock-advance to `until`
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run(until=50.0)
    assert fired == [1]
    assert sim.now == 1.0
    assert sim.pending == 1


def test_profiling_accounts_events_and_categories():
    sim = Simulator()
    prof = sim.enable_profiling()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert prof.events == 2
    assert prof.run_seconds > 0
    # both lambdas defined here -> one category named after this module
    assert sum(n for n, _secs in prof.by_category.values()) == 2


def test_profile_drain_deltas_are_incremental():
    sim = Simulator()
    prof = sim.enable_profiling()
    sim.schedule(1.0, lambda: None)
    sim.run()
    first = prof.drain_deltas()
    assert first["events"] == 1
    assert prof.drain_deltas()["events"] == 0
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert prof.drain_deltas()["events"] == 1
