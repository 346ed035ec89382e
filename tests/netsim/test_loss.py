"""Tests for random frame loss on a segment."""

import numpy as np
import pytest

from repro.netsim import Backplane, Frame, InterfaceAddr, Nic, build_dual_backplane_cluster
from repro.simkit import Simulator


class _Payload:
    size_bytes = 28


def _lossy_rig(loss_rate, seed=0, n_frames=2000):
    sim = Simulator()
    rng = np.random.default_rng(seed)
    bp = Backplane(sim, 0, loss_rate=loss_rate, rng=rng)
    a = Nic(InterfaceAddr(0, 0), bp)
    b = Nic(InterfaceAddr(1, 0), bp)
    received = []
    b.use_handlers({"t": lambda f, nic: received.append(f)})
    for _ in range(n_frames):
        a.send(Frame(a.addr, b.addr, "t", _Payload()))
    sim.run()
    return received, bp


def test_zero_loss_delivers_everything():
    received, bp = _lossy_rig(0.0)
    assert len(received) == 2000
    assert bp.frames_dropped.value == 0


def test_loss_rate_statistics():
    received, bp = _lossy_rig(0.2)
    delivered_fraction = len(received) / 2000
    assert delivered_fraction == pytest.approx(0.8, abs=0.03)
    assert bp.frames_dropped.value == 2000 - len(received)


def test_loss_rate_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Backplane(sim, 0, loss_rate=1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        Backplane(sim, 0, loss_rate=-0.1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        Backplane(sim, 0, loss_rate=0.1)  # rng required


def test_set_loss_rate_at_runtime():
    sim = Simulator()
    bp = Backplane(sim, 0)
    with pytest.raises(ValueError):
        bp.set_loss_rate(0.5)  # no rng yet
    bp.set_loss_rate(0.5, rng=np.random.default_rng(1))
    assert bp.loss_rate == 0.5
    bp.set_loss_rate(0.0)
    assert bp.loss_rate == 0.0
    with pytest.raises(ValueError):
        bp.set_loss_rate(2.0, rng=np.random.default_rng(1))


def test_cluster_builder_accepts_loss():
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 3, loss_rate=0.1, rng=np.random.default_rng(0))
    assert all(bp.loss_rate == 0.1 for bp in cluster.backplanes)


def test_drs_detects_one_way_gray_failure():
    """The bidirectional echo catches a NIC that only fails one direction."""
    from repro.drs import install_drs
    from repro.protocols import install_stacks
    from tests.drs.conftest import FAST

    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 4)
    stacks = install_stacks(cluster)
    install_drs(cluster, stacks, FAST)
    sim.run(until=1.0)
    # node 1's net-0 card still transmits, but no arriving frame reaches the stack
    cluster.nodes[1].nics[0].use_handlers({})
    sim.run(until=sim.now + 2.0)
    # peers' echoes go unanswered -> link declared down -> rerouted
    route = stacks[0].table.lookup(1)
    assert route.network == 1
