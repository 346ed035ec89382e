"""Unit tests for generator processes and signals."""

import pytest

from repro.simkit import Process, Signal, SimulationError, Simulator, Timeout


def test_process_sleeps_on_yielded_floats():
    sim = Simulator()
    times = []

    def body():
        times.append(sim.now)
        yield 1.0
        times.append(sim.now)
        yield Timeout(2.5)
        times.append(sim.now)

    p = Process(sim, body())
    sim.run()
    assert times == [0.0, 1.0, 3.5]
    assert p.finished


def test_process_return_value():
    sim = Simulator()

    def body():
        yield 1.0
        return 42

    p = Process(sim, body())
    sim.run()
    assert p.finished and p.value == 42 and p.error is None


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_signal_wakes_waiters_with_value():
    sim = Simulator()
    sig = Signal("go")
    got = []

    def waiter():
        value = yield sig
        got.append((sim.now, value))

    Process(sim, waiter())
    Process(sim, waiter())
    sim.schedule(5.0, lambda: sig.fire("payload"))
    sim.run()
    assert got == [(5.0, "payload"), (5.0, "payload")]


def test_signal_fire_returns_waiter_count():
    sim = Simulator()
    sig = Signal()

    def waiter():
        yield sig

    Process(sim, waiter())
    sim.run(until=0.1)
    assert sig.fire() == 1
    assert sig.fire() == 0  # waiters are one-shot


def test_process_waits_on_other_process():
    sim = Simulator()
    order = []

    def child():
        yield 3.0
        order.append("child-done")
        return "result"

    def parent():
        c = Process(sim, child())
        got = yield c
        order.append(("parent-woke", sim.now, got))

    Process(sim, parent())
    sim.run()
    assert order == ["child-done", ("parent-woke", 3.0, "result")]


def test_wait_on_already_finished_process():
    sim = Simulator()
    got = []

    def child():
        return "early"
        yield  # pragma: no cover

    def parent(c):
        value = yield c
        got.append(value)

    c = Process(sim, child())
    sim.run(until=1.0)
    assert c.finished
    Process(sim, parent(c))
    sim.run()
    assert got == ["early"]


def test_interrupt_cancels_sleep_and_delivers_value():
    sim = Simulator()
    log = []

    def sleeper():
        woke = yield 100.0
        log.append((sim.now, woke))

    p = Process(sim, sleeper())
    sim.schedule(2.0, lambda: p.interrupt("poked"))
    sim.run()
    assert log == [(2.0, "poked")]


def test_kill_stops_body():
    sim = Simulator()
    log = []

    def body():
        log.append("start")
        yield 10.0
        log.append("never")

    p = Process(sim, body())
    sim.schedule(1.0, p.kill)
    sim.run()
    assert log == ["start"]
    assert p.finished


def test_negative_delay_raises_inside_process():
    sim = Simulator()

    def bad():
        yield -1.0

    p = Process(sim, bad())
    with pytest.raises(SimulationError):
        sim.run()
    assert p.finished and isinstance(p.error, SimulationError)


def test_unsupported_yield_raises():
    sim = Simulator()

    def bad():
        yield "nonsense"

    p = Process(sim, bad())
    with pytest.raises(SimulationError):
        sim.run()
    assert isinstance(p.error, SimulationError)


def test_exception_in_body_is_surfaced_and_recorded():
    sim = Simulator()

    def bad():
        yield 1.0
        raise ValueError("boom")

    p = Process(sim, bad())
    with pytest.raises(ValueError):
        sim.run()
    assert p.finished and isinstance(p.error, ValueError)
