"""Unit tests for counters and the trace recorder."""

from repro.simkit import Counter, Simulator, TraceRecorder


def test_counter_accumulates():
    c = Counter("pkts")
    c.add()
    c.add(2.5)
    assert c.value == 3.5 and c.events == 2


def test_trace_records_time_and_fields():
    sim = Simulator()
    tr = TraceRecorder(sim)
    sim.schedule(1.5, lambda: tr.record("ping", src=1, dst=2))
    sim.run()
    (entry,) = tr.entries("ping")
    assert entry.time == 1.5 and entry.fields == {"src": 1, "dst": 2}


def test_trace_category_filtering_and_count():
    sim = Simulator()
    tr = TraceRecorder(sim)
    tr.record("a", i=1)
    tr.record("b", i=2)
    tr.record("a", i=3)
    assert tr.count("a") == 2
    assert [e.fields["i"] for e in tr.entries("a")] == [1, 3]
    assert [e.fields["i"] for e in tr.iter_entries("b")] == [2]
    assert len(tr) == 3


def test_trace_last():
    sim = Simulator()
    tr = TraceRecorder(sim)
    assert tr.last("x") is None
    tr.record("x", n=1)
    tr.record("x", n=2)
    assert tr.last("x").fields["n"] == 2


def test_trace_disabled_records_nothing():
    sim = Simulator()
    tr = TraceRecorder(sim, enabled=False)
    tr.record("a")
    assert len(tr) == 0


def test_trace_hooks_fire():
    sim = Simulator()
    tr = TraceRecorder(sim)
    seen = []
    tr.add_hook(lambda e: seen.append(e.category))
    tr.record("alpha")
    tr.record("beta")
    assert seen == ["alpha", "beta"]


def test_trace_clear_keeps_hooks():
    sim = Simulator()
    tr = TraceRecorder(sim)
    seen = []
    tr.add_hook(lambda e: seen.append(1))
    tr.record("a")
    tr.clear()
    assert len(tr) == 0
    tr.record("b")
    assert seen == [1, 1]


def test_trace_raising_hook_is_swallowed_and_detached():
    # Policy: an export hook that raises must not corrupt the trace or abort
    # the simulation -- the entry is kept, the hook is detached after its
    # first failure, and the exception is preserved in hook_errors.
    sim = Simulator()
    tr = TraceRecorder(sim)
    seen = []
    boom = RuntimeError("disk full")

    def bad_hook(entry):
        raise boom

    tr.add_hook(bad_hook)
    tr.add_hook(lambda e: seen.append(e.category))
    tr.record("a")
    assert tr.count("a") == 1  # the entry itself survived
    assert seen == ["a"]  # later hooks still ran
    assert tr.hook_errors == [boom]
    tr.record("b")  # detached: must not raise or re-record the error
    assert tr.hook_errors == [boom]
    assert seen == ["a", "b"]


def test_trace_all_hooks_run_even_when_several_raise():
    sim = Simulator()
    tr = TraceRecorder(sim)

    def bad1(entry):
        raise ValueError("one")

    def bad2(entry):
        raise KeyError("two")

    tr.add_hook(bad1)
    tr.add_hook(bad2)
    tr.record("x")
    assert [type(e) for e in tr.hook_errors] == [ValueError, KeyError]
    tr.record("y")
    assert len(tr) == 2 and len(tr.hook_errors) == 2


def test_trace_count_and_last_track_index():
    sim = Simulator()
    tr = TraceRecorder(sim)
    assert tr.count("a") == 0 and tr.last("a") is None
    tr.record("a", i=1)
    sim.schedule(2.0, lambda: tr.record("a", i=2))
    sim.run()
    assert tr.count("a") == 2
    assert tr.last("a").fields["i"] == 2 and tr.last("a").time == 2.0
    assert tr.last("missing") is None


def test_trace_clear_resets_category_index():
    sim = Simulator()
    tr = TraceRecorder(sim)
    tr.record("a", i=1)
    tr.record("b", i=2)
    tr.clear()
    assert len(tr) == 0
    assert tr.count("a") == 0 and tr.last("a") is None
    assert tr.entries("a") == [] and list(tr.iter_entries("b")) == []
    tr.record("a", i=3)  # index rebuilds cleanly after a clear
    assert tr.count("a") == 1 and tr.last("a").fields["i"] == 3
