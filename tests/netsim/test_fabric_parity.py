"""Hub and switch are read by one instrument: each registry total equals the
sum of the per-component counters that feed it, on either fabric."""

import pytest

from repro.drs import DrsConfig, install_drs
from repro.netsim import (
    Backplane,
    Frame,
    InterfaceAddr,
    Nic,
    Switch,
    build_dual_backplane_cluster,
    build_dual_switched_cluster,
)
from repro.netsim.addresses import broadcast_addr
from repro.obs import MetricsRegistry, ensure_core_metrics, use_registry
from repro.protocols import install_stacks
from repro.simkit import Simulator, TraceRecorder

FABRICS = pytest.mark.parametrize(
    "build", [build_dual_backplane_cluster, build_dual_switched_cluster], ids=["hub", "switch"]
)


@FABRICS
def test_registry_totals_equal_the_component_sums(build):
    registry = ensure_core_metrics(MetricsRegistry())
    with use_registry(registry):
        sim = Simulator()
        cluster = build(sim, 6)
        stacks = install_stacks(cluster)
        deployment = install_drs(cluster, stacks, DrsConfig(sweep_period_s=0.5))
        cluster.backplanes[0].fail()
        sim.run(until=3.0)
    segments = cluster.backplanes
    nics = [nic for node in cluster.nodes for nic in node.nics.values()]
    monitors = [d.monitor for d in deployment.routers.values()]
    engines = [d.failover for d in deployment.routers.values()]

    def total(name, components):
        counter = registry.counter(name)
        assert counter.value == sum(c.value for c in components), name
        assert counter.events == sum(c.events for c in components), name
        return counter

    bits = total("net_bits_carried_total", [s.bits_carried for s in segments])
    drops = total(
        "net_frames_dropped_total",
        [n.frames_dropped for n in nics] + [s.frames_dropped for s in segments],
    )
    assert bits.value > 0 and drops.value > 0
    carried = sum(s.frames_carried.value for s in segments)
    assert registry.histogram("net_queue_depth_seconds").count == carried == bits.events
    probe_bytes = total("drs_probe_bytes_total", [m.probe_bytes for m in monitors])
    assert probe_bytes.value == sum(m.probe_bytes.value for m in monitors) > 0
    total("drs_probes_sent_total", [m.probes_sent for m in monitors])
    repairs = total("drs_repairs_total", [e.repairs for e in engines])
    assert repairs.value == sum(int(e.repairs.value) for e in engines) > 0
    assert total("icmp_timeouts_total", [s.icmp.timeouts for s in stacks.values()]).value > 0


@FABRICS
def test_builder_publishes_into_the_registry_it_is_given(build):
    registry = ensure_core_metrics(MetricsRegistry())
    sim = Simulator()
    cluster = build(sim, 3, metrics=registry)
    assert cluster.metrics is registry
    stacks = install_stacks(cluster)
    stacks[0].icmp.ping(1, timeout_s=0.05, callback=lambda result: None)
    sim.run(until=0.1)
    assert registry.counter("net_bits_carried_total").value == sum(
        s.bits_carried.value for s in cluster.backplanes
    )
    assert registry.counter("net_frames_sent_total").value > 0


class _Unprintable(Frame):
    def __str__(self):
        raise AssertionError("a drop nobody records must not format its frame")


class _Payload:
    size_bytes = 28


@pytest.mark.parametrize("segment_type", [Backplane, Switch], ids=["hub", "switch"])
def test_disabled_drop_category_formats_no_frame(segment_type):
    sim = Simulator()
    trace = TraceRecorder(sim, enabled=False)
    segment = segment_type(sim, network_id=0, trace=trace)
    nic = Nic(InterfaceAddr(0, 0), segment, trace=trace)
    segment.fail()
    nic.send(_Unprintable(nic.addr, InterfaceAddr(1, 0), "t", _Payload()))
    sim.run()
    assert segment.frames_dropped.value == 1
    assert trace.count("drop") == 0


class _CountedPayload:
    """A payload that counts how often its size is read."""

    reads = 0

    @property
    def size_bytes(self):
        _CountedPayload.reads += 1
        return 28


@FABRICS
def test_each_frame_reads_its_size_once_whichever_fabric_carries_it(build, monkeypatch):
    monkeypatch.setattr(_CountedPayload, "reads", 0)
    sim = Simulator()
    cluster = build(sim, 4, metrics=ensure_core_metrics(MetricsRegistry()))
    a, b = cluster.nodes[0], cluster.nodes[1]
    sent = [
        a.send_frame(0, b.nics[0].addr, "t", _CountedPayload()),  # unknown unicast: a switch floods it
        b.send_frame(0, a.nics[0].addr, "t", _CountedPayload()),
        a.send_frame(1, broadcast_addr(1), "t", _CountedPayload()),  # three copies
    ]
    sim.run()
    assert all(sent)
    assert _CountedPayload.reads == len(sent)
    assert sum(s.frames_carried.value for s in cluster.backplanes) == len(sent)


@FABRICS
def test_a_payload_without_a_size_is_refused_when_its_frame_is_built(build):
    registry = ensure_core_metrics(MetricsRegistry())
    sim = Simulator()
    cluster = build(sim, 2, metrics=registry)
    a, b = cluster.nodes
    before = registry.snapshot()
    first = Frame(a.nics[0].addr, b.nics[0].addr, "t", _Payload()).frame_id
    with pytest.raises(TypeError, match="size_bytes"):
        a.send_frame(0, b.nics[0].addr, "t", object())
    # nothing was counted or scheduled, and the refused frame took no id
    assert Frame(a.nics[0].addr, b.nics[0].addr, "t", _Payload()).frame_id == first + 1
    assert registry.snapshot() == before
    assert sim.pending == 0
    assert [s.frames_carried.value for s in cluster.backplanes] == [0, 0]
