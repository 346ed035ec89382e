"""A bulk-synchronous (MPI-style) parallel job — the paper's NOW motivation.

The introduction motivates DRS with NOW/PVM/MPI clusters: tightly coupled
iterative computations where *every* iteration ends in communication, so a
single slow link stalls the whole job (the classic BSP straggler effect).

The model: each iteration, every worker computes for ``compute_time_s``,
then exchanges a halo message with both ring neighbours, and the next
iteration starts only when all of a worker's expected halos have arrived
(a distributed barrier realized by the data dependencies themselves).

Metric: per-iteration wall time.  A network failure inflates exactly the
iterations that overlap the outage — by the full routing-repair latency
under reactive schemes, and by roughly one probe sweep under DRS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.messaging import ClusterComm, install_messaging
from repro.protocols.stack import HostStack
from repro.simkit import Process, Signal, Simulator


@dataclass(frozen=True)
class MpiJobConfig:
    """Shape of the iterative job."""

    iterations: int = 50
    compute_time_s: float = 0.05
    halo_bytes: int = 8_192

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.compute_time_s < 0:
            raise ValueError("compute_time_s must be >= 0")
        if self.halo_bytes < 0:
            raise ValueError("halo_bytes must be >= 0")


@dataclass
class MpiJobStats:
    """Per-iteration timing of the whole job (completion of the slowest rank)."""

    iteration_times: list[float] = field(default_factory=list)

    @property
    def completed_iterations(self) -> int:
        """Iterations finished by every rank."""
        return len(self.iteration_times)

    def max_iteration_s(self) -> float:
        """Slowest iteration (the failure signature)."""
        return float(max(self.iteration_times)) if self.iteration_times else 0.0

    def median_iteration_s(self) -> float:
        """Median wall time per iteration (robust baseline)."""
        return float(np.median(self.iteration_times)) if self.iteration_times else 0.0


class MpiRingJob:
    """Runs the BSP ring-halo job over a messaging layer."""

    def __init__(self, sim: Simulator, comm: ClusterComm, config: MpiJobConfig) -> None:
        self.sim = sim
        self.comm = comm
        self.config = config
        self.ranks = sorted(comm.endpoints)
        if len(self.ranks) < 3:
            raise ValueError("the ring job needs at least 3 ranks")
        self.stats = MpiJobStats()
        self._procs: list[Process] = []
        # halos[rank][iteration] -> set of neighbours heard from
        self._halos: dict[int, dict[int, set[int]]] = {r: {} for r in self.ranks}
        self._waiting: dict[int, object] = {}
        self._iteration_started_at: dict[int, float] = {}
        self._ranks_done_iter: dict[int, int] = {}
        self.finished = False
        for rank in self.ranks:
            comm.endpoint(rank).on_receive(self._make_receiver(rank))

    def _neighbours(self, rank: int) -> tuple[int, int]:
        idx = self.ranks.index(rank)
        return (
            self.ranks[(idx - 1) % len(self.ranks)],
            self.ranks[(idx + 1) % len(self.ranks)],
        )

    # ---------------------------------------------------------------- driving
    def start(self) -> None:
        """Launch one process per rank."""
        self._iteration_started_at[0] = self.sim.now
        for rank in self.ranks:
            self._procs.append(Process(self.sim, self._rank_body(rank), name=f"mpi.rank{rank}"))

    def _make_receiver(self, rank: int):
        def on_receive(src: int, tag: str, payload, size: int) -> None:
            if not tag.startswith("halo-"):
                return
            iteration = int(tag.split("-", 1)[1])
            arrived = self._halos[rank].setdefault(iteration, set())
            arrived.add(src)
            waiter = self._waiting.get(rank)
            if waiter is not None:
                waiter.fire(None)

        return on_receive

    def _rank_body(self, rank: int):
        left, right = self._neighbours(rank)
        endpoint = self.comm.endpoint(rank)
        for iteration in range(self.config.iterations):
            yield self.config.compute_time_s
            endpoint.send(left, f"halo-{iteration}", None, self.config.halo_bytes)
            endpoint.send(right, f"halo-{iteration}", None, self.config.halo_bytes)
            while len(self._halos[rank].get(iteration, ())) < 2:
                sig = Signal(f"halo{rank}@{iteration}")
                self._waiting[rank] = sig
                yield sig
                self._waiting.pop(rank, None)
            self._rank_finished_iteration(rank, iteration)
        # rank done

    def _rank_finished_iteration(self, rank: int, iteration: int) -> None:
        self._ranks_done_iter[rank] = iteration
        if all(self._ranks_done_iter.get(r, -1) >= iteration for r in self.ranks):
            started = self._iteration_started_at.pop(iteration, None)
            if started is not None:
                self.stats.iteration_times.append(self.sim.now - started)
            if iteration + 1 < self.config.iterations:
                self._iteration_started_at.setdefault(iteration + 1, self.sim.now)
            else:
                self.finished = True

    @property
    def done(self) -> bool:
        """True once every rank has completed every iteration."""
        return self.finished

    def metrics(self) -> dict[str, Any]:
        """The scenario report's MPI rows."""
        return {
            "mpi job completed": self.done,
            "mpi iterations finished": self.stats.completed_iterations,
            "mpi median iteration (s)": self.stats.median_iteration_s(),
            "mpi slowest iteration (s)": self.stats.max_iteration_s(),
        }


def start_mpi_job(sim: Simulator, stacks: dict[int, HostStack], config: MpiJobConfig, rng) -> MpiRingJob:
    """Install the messaging layer on ``stacks``, then launch one rank per node."""
    job = MpiRingJob(sim, install_messaging(sim, stacks), config)
    job.start()
    return job
