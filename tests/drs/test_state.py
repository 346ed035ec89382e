"""Unit tests for the peer/link state table."""

from repro.drs import LinkState, PeerTable


def _table():
    return PeerTable(owner=0, peers=[0, 1, 2], networks=[0, 1])


def test_table_excludes_owner_and_covers_both_networks():
    t = _table()
    assert t.peers() == [1, 2]
    assert len(t.links()) == 4
    assert [l.key for l in t.links()] == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_initial_state_unknown():
    t = _table()
    assert all(l.state is LinkState.UNKNOWN for l in t.links())
    assert not t.peer_reachable_direct(1)


def test_success_marks_up():
    t = _table()
    t.record_success(1, 0, now=1.0)
    assert t.is_up(1, 0)
    assert t.link(1, 0).last_ok_at == 1.0
    assert t.up_networks_to(1) == [0]
    assert t.peer_reachable_direct(1)


def test_failure_below_threshold_is_suspect():
    t = _table()
    t.record_success(1, 0, now=1.0)
    t.record_failure(1, 0, now=2.0, threshold=2)
    assert t.link(1, 0).state is LinkState.SUSPECT
    assert not t.is_up(1, 0)


def test_failure_at_threshold_is_down_with_timestamp():
    t = _table()
    t.record_failure(1, 0, now=1.0, threshold=2)
    t.record_failure(1, 0, now=2.0, threshold=2)
    link = t.link(1, 0)
    assert link.state is LinkState.DOWN
    assert link.down_since == 2.0
    assert [down for down in t.links() if down.state is LinkState.DOWN] == [link]


def test_success_resets_failure_count_and_down_since():
    t = _table()
    t.record_failure(1, 0, now=1.0, threshold=3)
    t.record_success(1, 0, now=2.0)
    link = t.link(1, 0)
    assert link.consecutive_failures == 0
    assert link.down_since is None
    assert link.state is LinkState.UP


def test_transition_listener_fires_once_per_change():
    t = _table()
    events = []
    t.on_transition(lambda link, old, new: events.append((link.key, old, new)))
    t.record_success(1, 0, now=1.0)
    t.record_success(1, 0, now=2.0)  # no transition: already UP
    t.record_failure(1, 0, now=3.0, threshold=1)
    assert events == [
        ((1, 0), LinkState.UNKNOWN, LinkState.UP),
        ((1, 0), LinkState.UP, LinkState.DOWN),
    ]


def test_repeated_failures_do_not_renotify_down():
    t = _table()
    events = []
    t.on_transition(lambda link, old, new: events.append(new))
    t.record_failure(1, 0, now=1.0, threshold=1)
    t.record_failure(1, 0, now=2.0, threshold=1)
    assert events == [LinkState.DOWN]
    # but down_since keeps the first declaration time
    assert t.link(1, 0).down_since == 1.0


def test_links_to_returns_both_networks():
    t = _table()
    assert [l.network for l in t.links_to(2)] == [0, 1]
