"""Experiment drivers: one module per paper artifact.

Each driver exposes ``run(...) -> ExperimentResult`` producing the same
rows/series the paper reports, and the CLI in :mod:`~repro.experiments.runner`
(`repro run`) regenerates everything into CSV + text reports.

Each row of ``EXPERIMENTS`` below is one :class:`~repro.engine.ExperimentSpec`
of the ``repro.engine`` registry: name, a ``"module:qualname"`` reference to
the run function, the ``quick``/``full`` profiles (``full`` is usually empty:
the function's own defaults are the paper-scale configuration), ``parallel``
(``run`` takes ``executor=``, the sweep is a job plan), ``order`` (the CLI's
listing and run sequence) and a description.  Listing the experiments imports
none of them; a driver module is imported when its spec is first used.
"""

from repro import _lazy_exports

EXPERIMENTS = (
    dict(
        name="figure1",
        run="repro.experiments.figure1:run",
        profiles={
            "quick": {"n_max": 100, "validate_des": True, "des_nodes": 6, "des_seconds": 1.0},
            "full": {},
        },
        order=10,
        description="Fig. 1 response time vs N per probe-bandwidth budget",
    ),
    dict(
        name="figure2",
        run="repro.experiments.figure2:run",
        profiles={"quick": {"mc_iterations": 2_000}, "full": {"mc_iterations": 20_000}},
        parallel=True,
        order=20,
        description="Fig. 2 P[Success] vs N, f=2..10, with MC overlay",
    ),
    dict(
        name="figure3",
        run="repro.experiments.figure3:run",
        profiles={"quick": {"iteration_grid": (10, 100, 1_000), "n_max": 40}, "full": {}},
        parallel=True,
        order=30,
        description="Fig. 3 MC convergence (MAD vs iterations)",
    ),
    dict(
        name="crossovers",
        run="repro.experiments.crossovers:run",
        profiles={"quick": {"mc_iterations": 2_000}, "full": {"mc_iterations": 20_000}},
        parallel=True,
        order=40,
        description="prose 0.99 crossovers (18/32/45), with MC validation",
    ),
    dict(
        name="motivation",
        run="repro.experiments.motivation:run",
        profiles={"quick": {"fleet_years": 5}, "full": {}},
        order=50,
        description="prose 13% network-failure share",
    ),
    dict(
        name="failover",
        run="repro.experiments.failover:run",
        profiles={"quick": {"post_failure_s": 30.0}, "full": {}},
        order=60,
        description="proactive vs reactive outage (DES)",
    ),
    dict(
        name="desval",
        run="repro.experiments.desvalidation:run",
        profiles={"quick": {"replicates": 30, "f_values": (2, 3, 4)}, "full": {}},
        parallel=True,
        order=70,
        description="DES survivability vs Equation 1",
    ),
    dict(
        name="ablations",
        run="repro.experiments.ablations:run",
        profiles={
            "quick": {"n_values": (8, 32), "mc_iterations": 20_000, "sweep_periods": (0.5, 2.0)},
            "full": {},
        },
        parallel=True,
        order=80,
        description="two-hop / dual-backplane / sweep-period ablations",
    ),
    dict(
        name="grayfailure",
        run="repro.experiments.grayfailure:run",
        profiles={
            "quick": {"loss_rates": (0.0, 0.05), "retry_values": (1, 2), "sim_seconds": 30.0},
            "full": {},
        },
        order=90,
        description="false positives under random frame loss",
    ),
    dict(
        name="wholecluster",
        run="repro.experiments.wholecluster:run",
        profiles={"quick": {"mc_iterations": 10_000}, "full": {}},
        parallel=True,
        order=100,
        description="pairwise vs all-pairs survivability",
    ),
    dict(
        name="availability",
        run="repro.experiments.availability:run",
        profiles={"quick": {"n_values": (4, 16), "mc_iterations": 30_000}, "full": {}},
        parallel=True,
        order=110,
        description="downtime minutes/year planning + field-weighted correction",
    ),
    dict(
        name="scenarios",
        run="repro.experiments.scenariosuite:run",
        profiles={"quick": {}, "full": {}},
        order=120,
        description="every shipped drs-sim scenario, end to end",
    ),
    dict(
        name="desval-curve",
        run="repro.experiments.desvalidation:run_curve",
        profiles={"quick": {"replicates": 25, "n_values": (4, 6, 8)}, "full": {}},
        parallel=True,
        order=130,
        description="live-protocol Figure 2 slice at fixed f",
    ),
    dict(
        name="scaling",
        run="repro.experiments.scaling:run",
        profiles={"quick": {"n_values": (4, 8, 12)}, "full": {}},
        parallel=True,
        order=140,
        description="deployed-range size sweep + feasibility boundary",
    ),
    dict(
        name="topologysweep",
        run="repro.experiments.topologysweep:run",
        profiles={"quick": {"mc_iterations": 2_000, "sizes": (4, 6, 8)}, "full": {}},
        parallel=True,
        order=150,  # after every paper artifact: this is the generalization
        description="P[Success] grids over the pluggable topology catalog",
    ),
)

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {"base": ["ExperimentResult"]})
# and every driver module the table names, imported when first read
__all__ += dict.fromkeys(row["run"].partition(":")[0].rpartition(".")[2] for row in EXPERIMENTS)
