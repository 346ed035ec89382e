"""Unit tests for the event queue."""

import pytest

from repro.simkit.events import EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    order = []
    q.push(3.0, lambda: order.append(3))
    q.push(1.0, lambda: order.append(1))
    q.push(2.0, lambda: order.append(2))
    while q:
        q.pop().callback()
    assert order == [1, 2, 3]


def test_fifo_among_equal_times():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(1.0, lambda i=i: order.append(i))
    while q:
        q.pop().callback()
    assert order == list(range(10))


def test_priority_breaks_time_ties():
    q = EventQueue()
    order = []
    q.push(1.0, lambda: order.append("normal"), priority=0)
    q.push(1.0, lambda: order.append("early"), priority=-1)
    q.push(1.0, lambda: order.append("late"), priority=5)
    while q:
        q.pop().callback()
    assert order == ["early", "normal", "late"]


def test_cancel_skips_event():
    q = EventQueue()
    fired = []
    ev = q.push(1.0, lambda: fired.append("a"))
    q.push(2.0, lambda: fired.append("b"))
    q.cancel(ev)
    assert len(q) == 1
    while q:
        q.pop().callback()
    assert fired == ["b"]


def test_cancel_is_idempotent():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 1


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_pop_all_cancelled_raises():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.cancel(ev)
    with pytest.raises(IndexError):
        q.pop()


def test_len_and_bool():
    q = EventQueue()
    assert not q
    q.push(1.0, lambda: None)
    assert q and len(q) == 1
    q.clear()
    assert not q and len(q) == 0
