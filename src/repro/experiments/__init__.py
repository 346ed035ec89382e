"""Experiment drivers: one module per paper artifact.

Each driver produces the same rows/series the paper reports as an
``ExperimentResult``, and the CLI in :mod:`~repro.experiments.runner`
(`repro run`) regenerates everything into CSV + text reports.  A one-shot
driver exposes ``run(...)``; a sweep exposes ``build_plan(...)``, its
decomposition into a :class:`~repro.engine.JobPlan` of independently
seeded jobs, and is run through its spec.

Each row of ``EXPERIMENTS`` below is one :class:`~repro.engine.ExperimentSpec`
of the ``repro.engine`` registry: name, a ``"module:qualname"`` reference to
the run function (``run=``) or to the plan builder (``plan=``, whose
``spec.run`` also takes ``executor=`` and ``checkpoint=``), the
``quick``/``full`` profiles (``full`` is usually empty: the function's own
defaults are the paper-scale configuration), ``order`` (the CLI's listing
and run sequence) and a description.  Listing the experiments imports none
of them; a driver module is imported when its spec is first used.
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
        plan="repro.experiments.figure2:build_plan",
        profiles={"quick": {"mc_iterations": 2_000}, "full": {"mc_iterations": 20_000}},
        order=20,
        description="Fig. 2 P[Success] vs N, f=2..10, with MC overlay",
    ),
    dict(
        name="figure3",
        plan="repro.experiments.figure3:build_plan",
        profiles={"quick": {"iteration_grid": (10, 100, 1_000), "n_max": 40}, "full": {}},
        order=30,
        description="Fig. 3 MC convergence (MAD vs iterations)",
    ),
    dict(
        name="crossovers",
        plan="repro.experiments.crossovers:build_plan",
        profiles={"quick": {"mc_iterations": 2_000}, "full": {"mc_iterations": 20_000}},
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
        plan="repro.experiments.desvalidation:build_plan",
        profiles={"quick": {"replicates": 30, "f_values": (2, 3, 4)}, "full": {}},
        order=70,
        description="DES survivability vs Equation 1",
    ),
    dict(
        name="ablations",
        plan="repro.experiments.ablations:build_plan",
        profiles={
            "quick": {"n_values": (8, 32), "mc_iterations": 20_000, "sweep_periods": (0.5, 2.0)},
            "full": {},
        },
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
        plan="repro.experiments.wholecluster:build_plan",
        profiles={"quick": {"mc_iterations": 10_000}, "full": {}},
        order=100,
        description="pairwise vs all-pairs survivability",
    ),
    dict(
        name="availability",
        plan="repro.experiments.availability:build_plan",
        profiles={"quick": {"n_values": (4, 16), "mc_iterations": 30_000}, "full": {}},
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
        plan="repro.experiments.desvalidation:build_curve_plan",
        profiles={"quick": {"replicates": 25, "n_values": (4, 6, 8)}, "full": {}},
        order=130,
        description="live-protocol Figure 2 slice at fixed f",
    ),
    dict(
        name="scaling",
        plan="repro.experiments.scaling:build_plan",
        profiles={"quick": {"n_values": (4, 8, 12)}, "full": {}},
        order=140,
        description="deployed-range size sweep + feasibility boundary",
    ),
    dict(
        name="topologysweep",
        plan="repro.experiments.topologysweep:build_plan",
        profiles={"quick": {"mc_iterations": 2_000, "sizes": (4, 6, 8)}, "full": {}},
        order=150,  # after every paper artifact: this is the generalization
        description="P[Success] grids over the pluggable topology catalog",
    ),
)

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {"base": ["ExperimentResult"]})
# and every driver module the table names, imported when first read
__all__ += dict.fromkeys(
    (row.get("run") or row["plan"]).partition(":")[0].rpartition(".")[2] for row in EXPERIMENTS
)
