"""Unit tests for the metrics registry, gauges, and histograms."""

import json

import pytest

from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    ensure_core_metrics,
    resolve_registry,
    use_registry,
)
from repro.obs.metrics import CORE_COUNTERS, CORE_GAUGES, CORE_HISTOGRAMS


def test_gauge_set_and_add():
    g = Gauge("depth")
    g.set(3.0)
    g.add(-1.0)
    assert g.value == 2.0


def test_histogram_observe_and_stats():
    h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0, 100.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(106.5)
    assert h.mean() == pytest.approx(21.3)
    assert h.min == 0.5 and h.max == 100.0
    # counts: <=1: 1, <=2: 2, <=4: 1, +inf: 1
    assert h.counts == [1, 2, 1, 1]


def test_histogram_quantile_interpolates():
    h = Histogram("lat", buckets=(1.0, 2.0))
    for _ in range(10):
        h.observe(0.5)  # all in the first bucket
    # target = 5 of 10 within [0, 1] -> interpolated midpoint
    assert h.quantile(0.5) == pytest.approx(0.5)
    assert h.quantile(1.0) == pytest.approx(1.0)


def test_histogram_quantile_empty_and_overflow():
    h = Histogram("lat", buckets=(1.0,))
    assert h.quantile(0.5) == 0.0
    h.observe(50.0)
    # +inf observations can only report the largest finite bound
    assert h.quantile(0.99) == 1.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("x", buckets=())
    with pytest.raises(ValueError):
        Histogram("x", buckets=(2.0, 1.0))


def test_registry_get_or_create_shares_objects():
    reg = MetricsRegistry()
    a = reg.counter("frames_total")
    b = reg.counter("frames_total")
    assert a is b
    assert reg.get("frames_total") is a
    # same name, different labels -> distinct series
    c = reg.counter("frames_total", labels={"nic": "0"})
    assert c is not a
    assert len(reg) == 2


def test_registry_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")


def test_snapshot_shapes():
    reg = MetricsRegistry()
    reg.counter("c").add(2.0)
    reg.gauge("g").set(1.5)
    h = reg.histogram("h", buckets=(1.0, 2.0))
    h.observe(0.5)
    rows = {row["name"]: row for row in reg.snapshot()}
    assert rows["c"]["kind"] == "counter" and rows["c"]["value"] == 2.0
    assert rows["g"]["kind"] == "gauge" and rows["g"]["value"] == 1.5
    hist = rows["h"]
    assert hist["count"] == 1 and hist["min"] == 0.5 and hist["max"] == 0.5
    assert hist["buckets"][-1] == ["+inf", 0]
    # every snapshot row must be JSON-serializable as-is
    for row in reg.snapshot():
        json.dumps(row)


def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("frames_total", labels={"nic": "0"}).add(3)
    h = reg.histogram("rtt_seconds", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(5.0)
    text = reg.render_prometheus()
    assert "# TYPE frames_total counter" in text
    assert 'frames_total{nic="0"} 3' in text
    # cumulative buckets: 1 at le=0.1, still 1 at le=1.0, 2 at +Inf
    assert 'rtt_seconds_bucket{le="0.1"} 1' in text
    assert 'rtt_seconds_bucket{le="1"} 1' in text
    assert 'rtt_seconds_bucket{le="+Inf"} 2' in text
    assert "rtt_seconds_sum 5.05" in text
    assert "rtt_seconds_count 2" in text


def test_use_registry_scopes_current():
    outer = current_registry()
    scoped = MetricsRegistry()
    with use_registry(scoped):
        assert current_registry() is scoped
        assert resolve_registry(None) is scoped
        explicit = MetricsRegistry()
        assert resolve_registry(explicit) is explicit
    assert current_registry() is outer


def test_ensure_core_metrics_registers_stable_schema():
    reg = ensure_core_metrics(MetricsRegistry())
    names = set(reg.names())
    for name, _buckets, _help in CORE_HISTOGRAMS:
        assert name in names
    for name, _help in CORE_COUNTERS:
        assert name in names
    for name, _help in CORE_GAUGES:
        assert name in names
    # idempotent: re-running never duplicates or re-kinds anything
    assert ensure_core_metrics(reg) is reg
    assert reg.histogram("drs_broadcast_fanout").bounds == tuple(float(b) for b in DEFAULT_COUNT_BUCKETS)


def test_histogram_observation_on_bucket_bound_is_inclusive():
    # Bounds are Prometheus-style upper bounds (le): a value exactly on a
    # bound must land in that bucket, not the next one.
    h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
    h.observe(1.0)
    h.observe(2.0)
    h.observe(4.0)
    assert h.counts == [1, 1, 1, 0]
    assert h.quantile(0.0) == 0.0  # q=0 interpolates from the bucket floor


def test_histogram_negative_observation_lands_in_first_bucket():
    h = Histogram("delta", buckets=(0.0, 1.0))
    h.observe(-3.5)
    h.observe(0.5)
    assert h.counts == [1, 1, 0]
    assert h.min == -3.5 and h.max == 0.5
    assert h.sum == pytest.approx(-3.0)


def test_histogram_empty_snapshot_renders():
    from repro.viz import metrics_summary_table

    registry = MetricsRegistry()
    registry.histogram("never_observed_seconds")
    snapshot = registry.snapshot()
    (row,) = snapshot
    assert row["count"] == 0 and row["min"] is None and row["max"] is None
    text = metrics_summary_table(snapshot, title="t")
    assert "never_observed_seconds" in text and "-" in text
    assert metrics_summary_table([], title="t") == "t: (empty)"
