"""A component counter feeds its registry total in the same ``add``: one count per fact."""

import json
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.desvalidation import one_replicate
from repro.obs import MetricsRegistry, ensure_core_metrics, use_registry
from repro.obs.profiler import install_profiling, profiling_installed, uninstall_profiling
from repro.simkit import Counter

RECORDED = json.loads((Path(__file__).parent / "data" / "des_metric_rows.json").read_text())


@given(
    k=st.integers(1, 5),
    adds=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 10**9)), max_size=60),
)
def test_total_is_the_sum_of_its_children_under_any_interleaving(k, adds):
    registry = MetricsRegistry()
    total = registry.counter("things_total")
    children = [Counter(f"c{i}", total=total) for i in range(k)]
    for which, amount in adds:
        children[which % k].add(amount)
    assert total.value == sum(c.value for c in children)
    assert total.events == sum(c.events for c in children) == len(adds)
    assert registry.snapshot() == [
        {"name": "things_total", "kind": "counter", "value": total.value, "events": len(adds)}
    ]


def test_adds_per_fired_event_stay_under_budget(monkeypatch):
    """No clock needed: a fact counted twice again shows as more ``add`` calls per event.

    7.36 adds per event when every component counter had a registry twin on
    the next line; 4.84 with each built on its total.
    """
    calls = 0
    real_add = Counter.add

    def add(self, amount=1.0):
        nonlocal calls
        calls += 1
        real_add(self, amount)

    monkeypatch.setattr(Counter, "add", add)
    was_installed = profiling_installed()
    install_profiling()
    try:
        registry = ensure_core_metrics(MetricsRegistry())
        with use_registry(registry):
            one_replicate(8, 2, np.random.default_rng(7))
    finally:
        if not was_installed:
            uninstall_profiling()
    events = registry.counter("sim_events_total").value
    (pinned,) = (
        row["value"]
        for row in RECORDED["one_replicate/n=8/f=2"]
        if row["name"] == "sim_events_total" and "labels" not in row
    )
    assert events == pinned == 10561
    assert calls / events <= 5.5
