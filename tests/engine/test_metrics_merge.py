"""Cross-process observability aggregation: registry merge + heartbeat absorb."""

import pytest

from repro.obs.artifacts import write_metrics_files
from repro.obs.metrics import MetricsRegistry, ensure_core_metrics
from repro.obs.progress import ProgressReporter
from repro.simkit import Counter


def test_merge_counters_adds_values_and_events():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("hits").add(3)
    b.counter("hits").add(4)
    b.counter("only_b").add(2)
    a.merge(b)
    assert a.counter("hits").value == 7
    assert a.counter("only_b").value == 2


def test_merge_gauges_adds():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("inflight").set(2)
    b.gauge("inflight").set(5)
    a.merge(b)
    assert a.gauge("inflight").value == 7


def test_merge_histograms_combines_counts_and_extremes():
    a, b = MetricsRegistry(), MetricsRegistry()
    bounds = (0.1, 1.0, 10.0)
    ha = a.histogram("latency", buckets=bounds)
    hb = b.histogram("latency", buckets=bounds)
    ha.observe(0.05)
    hb.observe(5.0)
    hb.observe(20.0)
    a.merge(b)
    merged = a.histogram("latency", buckets=bounds)
    assert merged.count == 3
    assert merged.min == 0.05
    assert merged.max == 20.0
    assert merged.sum == pytest.approx(25.05)


def test_merge_histogram_bounds_mismatch_rejected():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("latency", buckets=(1.0, 2.0))
    b.histogram("latency", buckets=(1.0, 5.0)).observe(1.5)
    with pytest.raises(ValueError, match="bucket bounds"):
        a.merge(b)


def test_merge_core_registries_round_trips():
    parent = ensure_core_metrics(MetricsRegistry())
    worker = ensure_core_metrics(MetricsRegistry())
    worker.counter("sim_events_total").add(100)
    parent.merge(worker)
    assert parent.counter("sim_events_total").value == 100


def test_absorb_folds_worker_summary_into_parent():
    parent = ProgressReporter("run", interval_s=1e12)
    parent.add(10, jobs=1)
    worker = ProgressReporter("run", interval_s=1e12)
    worker.add(25, pair_down=2)
    parent.absorb(worker.summary())
    summary = parent.summary()
    assert summary["trials"] == 35
    assert summary["counts"] == {"jobs": 1, "pair_down": 2}


def test_absorb_tolerates_minimal_summary():
    parent = ProgressReporter("run", interval_s=1e12)
    parent.absorb({})
    assert parent.summary()["trials"] == 0


def _worker_registry(trials: int, latency_obs: list[float], hook_errors: int) -> MetricsRegistry:
    """One simulated pool worker's registry, the shape executors merge back."""
    registry = ensure_core_metrics(MetricsRegistry())
    registry.counter("sim_events_total").add(trials)
    registry.counter("hook_errors_total").add(hook_errors)
    histogram = registry.histogram("failover_latency_seconds", buckets=(0.1, 1.0, 10.0))
    for value in latency_obs:
        histogram.observe(value)
    return registry


class TestFleetMerge:
    """Three-plus worker registries folding into one parent, as a pool run does."""

    def test_three_workers_with_overlapping_histograms(self):
        parent = ensure_core_metrics(MetricsRegistry())
        workers = [
            _worker_registry(100, [0.05, 0.5], hook_errors=0),
            _worker_registry(250, [0.5, 5.0], hook_errors=2),
            _worker_registry(150, [5.0, 50.0], hook_errors=1),
        ]
        for worker in workers:
            parent.merge(worker)
        assert parent.counter("sim_events_total").value == 500
        assert parent.counter("hook_errors_total").value == 3
        merged = parent.histogram("failover_latency_seconds", buckets=(0.1, 1.0, 10.0))
        assert merged.count == 6
        assert merged.min == 0.05
        assert merged.max == 50.0
        assert merged.sum == pytest.approx(61.05)

    def test_merge_is_order_independent(self):
        workers = [
            _worker_registry(10, [0.2], hook_errors=1),
            _worker_registry(20, [2.0], hook_errors=0),
            _worker_registry(30, [20.0], hook_errors=4),
        ]
        forward = ensure_core_metrics(MetricsRegistry())
        for worker in workers:
            forward.merge(worker)
        backward = ensure_core_metrics(MetricsRegistry())
        for worker in reversed(workers):
            backward.merge(worker)
        assert forward.snapshot() == backward.snapshot()

    def test_absorbing_three_worker_reporters(self):
        parent = ProgressReporter("run", interval_s=1e12)
        for trials, counts in ((100, {"jobs": 3}), (250, {"jobs": 5, "pair_down": 2}),
                               (150, {"jobs": 4, "hook_errors": 1})):
            worker = ProgressReporter("run", interval_s=1e12)
            worker.add(trials, **counts)
            parent.absorb(worker.summary())
        summary = parent.summary()
        assert summary["trials"] == 500
        assert summary["counts"] == {"jobs": 12, "pair_down": 2, "hook_errors": 1}


# ------------------------------------------------ one row format, both ways
def _busy_registry():
    registry = ensure_core_metrics(MetricsRegistry())
    registry.counter("sim_events_total", labels={"category": "probe"}).add(7)
    registry.gauge("mc_iterations_per_second").set(1.5e6)
    for seen in (1e-6, 3e-4, 0.02, 50.0):
        registry.histogram("drs_probe_rtt_seconds").observe(seen)
    # a total fed by component counters is a row like any other
    for hub in ("hub0", "hub1"):
        Counter(f"{hub}.bits", total=registry.counter("net_bits_carried_total")).add(672)
    return registry


def test_snapshot_rows_rebuild_the_registry_and_its_artifacts(tmp_path):
    import json

    registry = _busy_registry()
    rebuilt = MetricsRegistry.from_rows(json.loads(json.dumps(registry.snapshot())))
    assert rebuilt.snapshot() == registry.snapshot()
    # the two files a run writes come out byte for byte the same from the rows
    assert rebuilt.render_prometheus() == registry.render_prometheus()
    written = write_metrics_files(registry, tmp_path / "a", "run")
    rewritten = write_metrics_files(rebuilt, tmp_path / "b", "run")
    assert [path.read_bytes() for path in rewritten] == [path.read_bytes() for path in written]
    parent = _busy_registry()
    parent.merge(rebuilt)
    assert parent.counter("sim_events_total", labels={"category": "probe"}).value == 14
    assert parent.histogram("drs_probe_rtt_seconds").count == 8
    bits = parent.counter("net_bits_carried_total")
    assert (bits.value, bits.events) == (4 * 672, 4)


@pytest.mark.parametrize(
    "row",
    [
        7,
        {"name": "n", "value": 1.0},
        {"name": "n", "kind": "timer", "value": 1.0},
        {"name": ["n"], "kind": "gauge", "value": 1.0},
        {"name": "n", "kind": "gauge", "value": "x"},
        {"name": "n", "kind": "counter", "value": 1.0},
        {"name": "n", "kind": "counter", "value": 1.0, "events": "many"},
        {"name": "n", "kind": "gauge", "value": 1, "labels": [1]},
        {"name": "n", "kind": "histogram", "count": 0, "sum": 0.0},
        {"name": "n", "kind": "histogram", "count": 0, "sum": 0.0, "buckets": 7},
        {"name": "n", "kind": "histogram", "count": 0, "sum": 0.0, "buckets": [["+inf", 0]]},
        {"name": "n", "kind": "histogram", "count": 0, "sum": 0.0, "buckets": [[1.0, 0], [2.0, 0]]},
        {"name": "n", "kind": "histogram", "count": 0, "sum": 0.0,
         "buckets": [[2.0, 0], [1.0, 0], ["+inf", 0]]},
        {"name": "n", "kind": "histogram", "count": 1, "sum": 0.5,
         "buckets": [[1.0, 1], ["+inf", 0]]},  # observed, yet no min/max
    ],
)
def test_rows_that_are_not_snapshot_rows_are_value_errors(row):
    with pytest.raises(ValueError):
        MetricsRegistry.from_rows([row])


def test_a_refused_merge_changes_nothing():
    """Every metric is checked before any is changed: the chunk decoder relies on it."""
    parent = _busy_registry()
    before = parent.snapshot()
    clash = MetricsRegistry()
    clash.counter("sim_events_total").add(99)  # fine on its own, and first in line
    clash.counter("brand_new_total").add(1)
    clash.histogram("drs_probe_rtt_seconds", buckets=(1.0, 2.0)).observe(1.5)
    with pytest.raises(ValueError, match="cannot merge histogram .* bucket bounds differ"):
        parent.merge(clash)
    assert parent.snapshot() == before and parent.get("brand_new_total") is None
    other_kind = MetricsRegistry()
    other_kind.counter("sim_events_total").add(99)
    other_kind.counter("mc_iterations_per_second").add(1)  # the parent holds a gauge
    with pytest.raises(ValueError, match="cannot merge counter 'mc_iterations_per_second'"):
        parent.merge(other_kind)
    assert parent.snapshot() == before
