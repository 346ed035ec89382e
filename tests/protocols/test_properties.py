"""Property-based tests on protocol-layer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols import Route, RouteSource, RoutingTable

_sources = st.sampled_from([RouteSource.STATIC, RouteSource.DRS, RouteSource.DISTVECTOR, RouteSource.REACTIVE])


@st.composite
def _table_ops(draw):
    """A random sequence of install/withdraw operations on one table."""
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["install", "withdraw"]))
        dst = draw(st.integers(1, 5))
        if kind == "install":
            ops.append(
                (
                    "install",
                    Route(
                        dst=dst,
                        network=draw(st.integers(0, 1)),
                        next_hop=draw(st.integers(1, 6)),
                        source=draw(_sources),
                    ),
                )
            )
        else:
            ops.append(("withdraw", dst, draw(_sources)))
    return ops


@given(_table_ops())
def test_routing_table_invariants_under_random_ops(ops):
    table = RoutingTable(owner=0)
    for op in ops:
        if op[0] == "install":
            route = op[1]
            if route.next_hop == 0 or route.dst == 0:
                continue
            table.install(route)
        else:
            _, dst, source = op
            table.withdraw(dst, source)
        # invariants after every operation:
        for route in table:
            assert route.dst != 0 and route.next_hop != 0
        snapshot = table.snapshot()
        assert len(set(snapshot)) == len(snapshot)  # one active route per dst
        for dst, route in snapshot.items():
            assert route.dst == dst


@given(_table_ops())
def test_withdraw_only_removes_matching_source(ops):
    table = RoutingTable(owner=0)
    for op in ops:
        if op[0] == "install":
            if op[1].next_hop == 0:
                continue
            table.install(op[1])
        else:
            _, dst, source = op
            before = table.lookup(dst)
            after = table.withdraw(dst, source)
            if before is not None and before.source is not source:
                assert after is before  # untouched


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 2**31 - 1),
    loss=st.floats(0.0, 0.25),
    n_messages=st.integers(1, 25),
    sizes=st.lists(st.integers(0, 4000), min_size=1, max_size=5),
)
def test_tcp_exactly_once_in_order_delivery(seed, loss, n_messages, sizes):
    """TCP-lite delivers every message exactly once, in order, at any loss."""
    from repro.netsim import build_dual_backplane_cluster
    from repro.protocols import install_stacks
    from repro.simkit import Simulator

    sim = Simulator()
    rng = np.random.default_rng(seed) if loss > 0 else None
    cluster = build_dual_backplane_cluster(sim, 2, loss_rate=loss, rng=rng)
    stacks = install_stacks(cluster)
    inbox = []
    stacks[1].tcp.listen(80, on_message=lambda c, d, s: inbox.append(d))
    conn = stacks[0].tcp.connect(1, 80, initial_rto_s=0.1, max_retries=60)
    for i in range(n_messages):
        conn.send_message(data=i, data_bytes=sizes[i % len(sizes)])
    sim.run(until=3600.0)
    assert inbox == list(range(n_messages)), (seed, loss)


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**31 - 1),
    f=st.integers(0, 6),
)
def test_exactly_f_injection_matches_component_count(seed, f):
    from repro.netsim import build_dual_backplane_cluster
    from repro.simkit import Simulator

    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 4)
    rng = np.random.default_rng(seed)
    chosen = cluster.faults.apply_exact_failures(f, rng)
    assert len(chosen) == f
    assert sum(not c.up for c in cluster.faults.components) == f
