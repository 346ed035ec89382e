"""The five routing regimes are spelled once, in ``ROUTING_PROTOCOLS``, and each installs one ``Deployment``."""

import pytest

from repro.experiments.failover import CONFIGS, PROTOCOLS
from repro.netsim import build_dual_backplane_cluster
from repro.protocols import Deployment, install_stacks
from repro.scenario.spec import ROUTING_PROTOCOLS
from repro.simkit import Simulator


def test_every_reader_derives_from_the_one_table():
    assert tuple(ROUTING_PROTOCOLS) == ("drs", "reactive", "distvector", "linkstate", "static")
    assert PROTOCOLS == tuple(ROUTING_PROTOCOLS)
    for kind, row in ROUTING_PROTOCOLS.items():
        assert callable(row.starter())
        # failover's fixed configuration is of the class the table names, or absent with it
        assert type(CONFIGS.get(kind)) is (row.config() or type(None))


@pytest.mark.parametrize("kind", ROUTING_PROTOCOLS)
def test_every_regime_stops_and_restarts_through_its_deployment(kind):
    sim = Simulator()
    cluster = build_dual_backplane_cluster(sim, 4)
    stacks = install_stacks(cluster)
    row = ROUTING_PROTOCOLS[kind]
    deployment = row.starter()(cluster, stacks, row.configure({}))
    assert type(deployment) is Deployment and deployment.config == row.configure({})
    assert list(deployment.routers) == ([] if kind == "static" else [0, 1, 2, 3])

    def wire_bits():
        return sum(bp.bits_carried.value for bp in cluster.backplanes)

    sim.run(until=10.0)
    deployment.stop()
    sim.run(until=11.0)  # the frames already on the wire land
    stopped = wire_bits()
    sim.run(until=30.0)
    assert wire_bits() == stopped
    deployment.start()
    sim.run(until=40.0)
    if kind == "static":
        assert wire_bits() == stopped == 0
    else:
        assert stopped > 0 and wire_bits() > stopped
