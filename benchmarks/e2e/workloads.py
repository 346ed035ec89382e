"""The eight workloads: what each child runs, at which scale, and why.

A workload is one ``drs-experiments``-shaped invocation: a registered
experiment, the kwargs that fix its size, and the executor it runs on.
Sizes are chosen so that one child's timed region is about one second on a
2-core box — the driver's budget (about 20 s per run of one workload, see
README.md) leaves room for seven to ten such children and no more.  ``smoke``
sizes are the same calls at a scale where all eight finish inside a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``spec`` is the registry name ``drs-experiments`` would be given;
    ``kwargs``/``smoke`` go to ``spec.run`` next to ``seed=``; ``jobs`` and
    ``backend`` go to ``make_executor``.  ``work_unit`` says what
    ``work_per_s`` counts.  ``reference`` names the workload whose CSVs must
    be byte-identical to this one's at the same seed (the engine's
    backend-independence contract).
    """

    name: str
    why: str
    spec: str
    kwargs: dict[str, Any]
    smoke: dict[str, Any]
    work_unit: str
    jobs: int = 1
    backend: str = "local"
    reference: str | None = None
    #: listed in BENCHMARK.json, i.e. one of the workloads the benchmark driver
    #: runs and holds to the bounds; the others run only without ``--workload``
    gated: bool = True

    def run_kwargs(self, smoke: bool) -> dict[str, Any]:
        """A fresh copy of the kwargs for one profile."""
        return dict(self.smoke if smoke else self.kwargs)


_TOPO_F = (6, 7, 8)
# Fourteen columns of at most 1,200 iterations: the padded key matrix stays
# near 75 MB.  Columns of 2,000 and more push the process past ~250 MB of
# churned temporaries, where this VM's page-fault cost turns bimodal (the
# same child: 1.1 s or 2.2 s wall, user CPU unchanged) and no estimator is
# steady - README.md, "The system-time finding".
_FIG3_GRID = (10, 30, 100, *range(200, 1_300, 100))

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="fig2_crn_serial",
        why="Figure 2 overlay, serial: the CRN sweep (draw, connectivity_levels, histogram) "
        "does nearly all the work; engine and obs almost none.",
        spec="figure2",
        kwargs={"mc_iterations": 40_000},
        smoke={"mc_iterations": 2_000},
        work_unit="trials",
    ),
    Workload(
        name="fig2_crn_pool2",
        why="Same plan on a 2-worker process pool: strong scaling of equal-cost CPU-bound "
        "jobs, where concurrent page faulting bounds the speed-up before scheduling does.",
        spec="figure2",
        kwargs={"mc_iterations": 40_000},
        smoke={"mc_iterations": 2_000},
        work_unit="trials",
        jobs=2,
        reference="fig2_crn_serial",
    ),
    Workload(
        name="fig3_padded_serial",
        why="Figure 3 columns through the padded multi-N tensor pass: large short-lived "
        "temporaries, so a kernel that helps fig2 but allocates more shows here.",
        spec="figure3",
        kwargs={"iteration_grid": _FIG3_GRID},
        smoke={"iteration_grid": (10, 100, 1_000)},
        work_unit="trials",
    ),
    Workload(
        name="topo_small_exact",
        why="Five topology families at size 4: the exact-enumeration overlay in reduce "
        "dominates, runs in the coordinator, and no kernel or --jobs change moves it.",
        spec="topologysweep",
        kwargs={"sizes": (4,), "f_values": (1, 2, 3, 4, 5, 6)},
        smoke={"sizes": (4,), "f_values": (1, 2, 3), "mc_iterations": 2_000},
        work_unit="trials",
    ),
    Workload(
        name="topo_large_mc",
        why="Sizes 24 and 32, too large to enumerate: the generic matmul-BFS + binary-search "
        "kernel in analysis.topokernel does the work.",
        spec="topologysweep",
        kwargs={"sizes": (24, 32), "f_values": _TOPO_F, "mc_iterations": 5_000},
        smoke={"sizes": (32,), "f_values": _TOPO_F, "mc_iterations": 500},
        work_unit="trials",
    ),
    Workload(
        name="smalljobs_pool2",
        why="About a thousand 10-trial jobs on the pool: kernel near zero, so this is per-job "
        "engine cost - pickling, chunking, checkpoint append+fsync, flight ingest, merge.",
        spec="figure2",
        kwargs={"mc_iterations": 10, "n_max": 1_000},
        smoke={"mc_iterations": 10, "n_max": 200},
        work_unit="jobs",
        jobs=2,
        # Not held to the bounds: on this VM its 0.7 s region sits in one of two
        # states for minutes at a time (ten-seed medians 0.71, 0.76, 0.76, 0.87,
        # 0.91 s in five back-to-back sets - README.md), which alone would fail
        # a 25 % gate one time in four.  It still runs, checks on, as
        # smalljobs_dist2's reference in every driver run of that workload.
        gated=False,
    ),
    Workload(
        name="smalljobs_dist2",
        why="Same plan over the TCP coordinator and 2 loopback drs-workers: framing, wire "
        "codecs, heartbeats, worker start-up; pins the second transport.",
        spec="figure2",
        kwargs={"mc_iterations": 10, "n_max": 1_000},
        smoke={"mc_iterations": 10, "n_max": 200},
        work_unit="jobs",
        jobs=2,
        backend="distributed",
        reference="smalljobs_pool2",
    ),
    Workload(
        name="desval_serial",
        why="The protocol side: simkit event loop + netsim + protocols + drs under exactly-f "
        "fault injection, a dozen short simulations; the MC kernels do nothing here.",
        spec="desval",
        kwargs={"replicates": 4, "f_values": (2, 3, 4)},
        smoke={"replicates": 2, "f_values": (2, 3)},
        work_unit="events",
    ),
)

BY_NAME: dict[str, Workload] = {w.name: w for w in WORKLOADS}
