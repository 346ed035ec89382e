"""The five routing regimes are spelled once, in ``ROUTING_PROTOCOLS``."""

from repro.experiments.failover import CONFIGS, PROTOCOLS
from repro.scenario.run import resolve_protocol
from repro.scenario.spec import ROUTING_PROTOCOLS


def test_every_reader_derives_from_the_one_table():
    assert tuple(ROUTING_PROTOCOLS) == ("drs", "reactive", "distvector", "linkstate", "static")
    assert PROTOCOLS == tuple(ROUTING_PROTOCOLS)
    for kind in ROUTING_PROTOCOLS:
        config_type, install = resolve_protocol(kind)
        assert callable(install)
        # failover's fixed configuration is of the class the table names, or absent with it
        assert type(CONFIGS.get(kind)) is (config_type or type(None))
