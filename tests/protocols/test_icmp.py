"""Unit tests for ICMP echo: direct probes, routed pings, timeouts."""

import pytest

from repro.protocols import PingStatus, Route, RouteSource


def _collect(results):
    return lambda res: results.append(res)


def test_direct_ping_reply_with_rtt(rig):
    sim, cluster, stacks = rig
    results = []
    stacks[0].icmp.ping_direct(0, 1, timeout_s=1.0, callback=_collect(results))
    sim.run()
    (res,) = results
    assert res.status is PingStatus.REPLY
    assert res.network == 0 and res.dst_node == 1
    # RTT = 2 * (84B serialization + 5us propagation)
    assert res.rtt_s == pytest.approx(2 * (84 * 8 / 100e6 + 5e-6))


def test_direct_ping_each_network_independent(rig):
    sim, cluster, stacks = rig
    results = []
    cluster.faults.fail("hub0")
    stacks[0].icmp.ping_direct(0, 1, timeout_s=0.5, callback=_collect(results))
    stacks[0].icmp.ping_direct(1, 1, timeout_s=0.5, callback=_collect(results))
    sim.run()
    by_net = {r.network: r.status for r in results}
    assert by_net[0] is PingStatus.TIMEOUT
    assert by_net[1] is PingStatus.REPLY


def test_timeout_when_peer_nic_down(rig):
    sim, cluster, stacks = rig
    cluster.faults.fail("nic1.0")
    results = []
    stacks[0].icmp.ping_direct(0, 1, timeout_s=0.25, callback=_collect(results))
    sim.run()
    assert results[0].status is PingStatus.TIMEOUT
    assert sim.now >= 0.25


def test_send_failed_when_own_nic_down_is_async(rig):
    sim, cluster, stacks = rig
    cluster.faults.fail("nic0.0")
    results = []
    stacks[0].icmp.ping_direct(0, 1, timeout_s=0.25, callback=_collect(results))
    assert results == []  # callback must not run re-entrantly
    sim.run()
    assert results[0].status is PingStatus.SEND_FAILED
    assert results[0].rtt_s is None


def test_routed_ping_follows_routing_table(rig):
    sim, cluster, stacks = rig
    # Make 0 -> 1 travel via intermediate 2, and ensure the reply routes back.
    stacks[0].table.install(Route(dst=1, network=0, next_hop=2, source=RouteSource.DRS))
    stacks[2].table.install(Route(dst=1, network=1, next_hop=1, source=RouteSource.DRS))
    results = []
    stacks[0].icmp.ping(1, timeout_s=1.0, callback=_collect(results))
    sim.run()
    assert results[0].status is PingStatus.REPLY
    assert results[0].network is None


def test_routed_ping_without_route_fails(rig):
    sim, cluster, stacks = rig
    stacks[0].table.withdraw(1, RouteSource.STATIC)
    results = []
    stacks[0].icmp.ping(1, timeout_s=1.0, callback=_collect(results))
    sim.run()
    assert results[0].status is PingStatus.SEND_FAILED


def test_late_reply_after_timeout_ignored(rig):
    sim, cluster, stacks = rig
    results = []
    # 1us timeout: reply arrives later (~18us RTT) and must not double-report.
    stacks[0].icmp.ping_direct(0, 1, timeout_s=1e-6, callback=_collect(results))
    sim.run()
    assert len(results) == 1
    assert results[0].status is PingStatus.TIMEOUT


def test_ping_with_padding_changes_wire_size(rig):
    sim, cluster, stacks = rig
    results = []
    stacks[0].icmp.ping_direct(0, 1, timeout_s=1.0, callback=_collect(results), data_bytes=1000)
    sim.run()
    assert results[0].status is PingStatus.REPLY
    # 20 IP + 8 ICMP + 1000 data + 18 ether + 20 preamble = 1066 bytes per leg
    assert results[0].rtt_s == pytest.approx(2 * (1066 * 8 / 100e6 + 5e-6))


def test_zero_timeout_rejected(rig):
    sim, cluster, stacks = rig
    with pytest.raises(ValueError):
        stacks[0].icmp.ping_direct(0, 1, timeout_s=0, callback=lambda r: None)


@pytest.mark.parametrize("timeout_s", [float("nan"), float("inf")])
@pytest.mark.parametrize("routed", [False, True], ids=["direct", "routed"])
def test_non_finite_timeout_is_refused_before_anything_is_sent(rig, timeout_s, routed):
    sim, cluster, stacks = rig
    icmp = stacks[0].icmp
    with pytest.raises(ValueError, match="timeout_s"):
        if routed:
            icmp.ping(1, timeout_s=timeout_s, callback=lambda r: None)
        else:
            icmp.ping_direct(0, 1, timeout_s=timeout_s, callback=lambda r: None)
    sim.run()
    assert sum(hub.bits_carried.value for hub in cluster.backplanes) == 0
    assert stacks[0].net.sent.value == 0
    assert stacks[1].icmp.requests_answered.value == 0
    assert sim.pending == 0


def test_responder_counts(rig):
    sim, cluster, stacks = rig
    results = []
    stacks[0].icmp.ping_direct(0, 1, timeout_s=1.0, callback=_collect(results))
    sim.run()
    assert stacks[1].icmp.requests_answered.value == 1
    assert stacks[0].icmp.replies_matched.value == 1
    assert stacks[0].icmp.timeouts.value == 0
