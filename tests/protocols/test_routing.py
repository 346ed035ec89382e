"""Unit tests for the routing table."""

import pytest

from repro.protocols import Route, RouteSource, RoutingTable


def _direct(dst, net=0, source=RouteSource.STATIC):
    return Route(dst=dst, network=net, next_hop=dst, source=source)


def test_install_and_lookup():
    t = RoutingTable(owner=0)
    t.install(_direct(1))
    route = t.lookup(1)
    assert route.direct and route.network == 0 and route.next_hop == 1
    assert t.lookup(2) is None


def test_install_defaults_skips_self():
    t = RoutingTable(owner=2)
    t.install_defaults([0, 1, 2, 3], network=1)
    assert len(t) == 3
    assert 2 not in t
    assert all(r.network == 1 and r.direct for r in t)


def test_route_to_self_rejected():
    t = RoutingTable(owner=0)
    with pytest.raises(ValueError):
        t.install(_direct(0))


def test_self_next_hop_rejected():
    t = RoutingTable(owner=0)
    with pytest.raises(ValueError):
        t.install(Route(dst=1, network=0, next_hop=0))


def test_drs_install_shadows_static_and_withdraw_restores():
    t = RoutingTable(owner=0)
    t.install(_direct(1, net=0, source=RouteSource.STATIC))
    drs_route = Route(dst=1, network=1, next_hop=1, source=RouteSource.DRS)
    t.install(drs_route)
    assert t.lookup(1) is drs_route
    restored = t.withdraw(1, RouteSource.DRS)
    assert restored is not None
    assert restored.source is RouteSource.STATIC and restored.network == 0
    assert t.lookup(1) is restored


def test_withdraw_wrong_source_is_noop():
    t = RoutingTable(owner=0)
    t.install(_direct(1, source=RouteSource.STATIC))
    active = t.withdraw(1, RouteSource.DRS)
    assert active is t.lookup(1)
    assert active.source is RouteSource.STATIC


def test_withdraw_without_shadow_removes():
    t = RoutingTable(owner=0)
    t.install(_direct(1, source=RouteSource.DRS))
    assert t.withdraw(1, RouteSource.DRS) is None
    assert t.lookup(1) is None


def test_same_source_reinstall_does_not_shadow_itself():
    t = RoutingTable(owner=0)
    t.install(Route(dst=1, network=0, next_hop=1, source=RouteSource.DRS))
    t.install(Route(dst=1, network=1, next_hop=1, source=RouteSource.DRS))
    # withdrawing once removes it entirely; no stale self-shadow comes back
    assert t.withdraw(1, RouteSource.DRS) is None


def test_change_count():
    t = RoutingTable(owner=0)
    t.install(_direct(1, net=0))
    t.install(Route(dst=1, network=1, next_hop=1, source=RouteSource.DRS))
    t.withdraw(1, RouteSource.DRS)
    assert t.lookup(1).network == 0
    assert t.change_count == 3


def test_iter_sorted_and_snapshot():
    t = RoutingTable(owner=0)
    t.install(_direct(3))
    t.install(_direct(1))
    assert [r.dst for r in t] == [1, 3]
    snap = t.snapshot()
    t.withdraw(1, RouteSource.STATIC)
    assert 1 in snap and 1 not in t


def test_route_str_forms():
    assert "direct" in str(_direct(1))
    assert "via 5" in str(Route(dst=1, network=0, next_hop=5))
