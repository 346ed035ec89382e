"""The five routing regimes are spelled once, in ``ROUTING_PROTOCOLS``."""

from repro.baselines import ROUTING_PROTOCOLS
from repro.experiments.failover import CONFIGS, PROTOCOLS
from repro.scenario.spec import VALID_PROTOCOLS


def test_every_reader_derives_from_the_one_table():
    assert tuple(ROUTING_PROTOCOLS) == ("drs", "reactive", "distvector", "linkstate", "static")
    assert VALID_PROTOCOLS == PROTOCOLS == tuple(ROUTING_PROTOCOLS)
    for kind, (config_type, install) in ROUTING_PROTOCOLS.items():
        assert callable(install)
        # failover's fixed configuration is of the class the table names, or absent with it
        assert type(CONFIGS.get(kind)) is (config_type or type(None))
