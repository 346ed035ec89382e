"""The truth table: every Monte Carlo method x catalog family x predicate against exact truth.

Each row is one (family, size, predicate, method) call of
:func:`~repro.analysis.simulate_topology_grid` over the topology sweep's
f-grid.  Wherever a truth exists within :data:`BUDGET` failure sets per
cell, every sampled count must lie inside the central ``1 - ALPHA``
binomial mass of its exact probability — the benchmark's own
``binomial_tail_ok`` at its per-cell false-failure rate, so a correct
estimator fails a cell about once in a billion:

* ``crn``: the survivors among all trials, against
  :func:`~repro.analysis.exact_topology_success` (Equation 1 for the
  dual-hub fast path, enumeration otherwise);
* ``stratified``: the survivors of every sampled stratum ("exactly ``j``
  strata sites failed"), against that stratum's conditional probability,
  counted here by enumerating every failure set through the predicate;
* ``stratified-cv`` (the dual-hub kernel only): the endpoint-dead count
  against its stratum-0 probability and the survivors against their
  probability given no endpoint died.

The returned point must then be the weighted combination of exactly those
counts, so a cell cannot pass on counts its estimate does not use.  A
method a row cannot run (``stratified-cv`` off the attached dual-hub
kernel) must be refused with a ``ValueError`` naming it.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest

from benchmarks.e2e.checks import ALPHA, binomial_tail_ok
from repro.analysis import (
    exact_topology_success,
    montecarlo,
    simulate_topology_grid,
    topokernel,
    topology_connected_vec,
    variance,
)
from repro.experiments.topologysweep import DEFAULT_TOPOLOGIES, F_VALUES, SIZES
from repro.topology import AllTerminalsConnected, PairConnected, TerminalQuorum, build_topology
from tests.conftest import keyed

SEED = 20_261_019
#: failure sets per cell the truth may enumerate (all 126 such cells of the sweep's grid)
BUDGET = 20_000
TRIALS = 500  # binomial_tail_ok sums math.comb(trials, k) terms: its cost grows ~ trials^2
PREDICATES = {
    "own": None,  # the topology's default predicate, attached fast paths included
    "pair": PairConnected(),
    "all-terminals": AllTerminalsConnected(),
    "quorum": TerminalQuorum(),
}
METHODS = ("crn", "stratified", "stratified-cv")
#: the dual-hub endpoints' NIC sites (a0, a1, b0, b1): the control variate's event
ENDPOINT_NICS = ((2, 3), (4, 5))


def _strata_counts(topology, f: int, predicate, endpoint_dead: bool = False) -> np.ndarray:
    """``[j] = (failure sets, surviving sets, endpoint-dead sets)`` with ``j`` strata sites failed.

    Every size-``f`` subset of the failure universe, through the batch
    predicate; the last column is counted only for the dual-hub control
    variate.
    """
    width, strata = topology.width, list(topology.strata_positions())
    subsets = np.array(list(combinations(range(width), f)), dtype=np.intp).reshape(-1, f)
    failed = np.zeros((len(subsets), width), dtype=bool)
    failed[np.arange(len(subsets))[:, None], subsets] = True
    ok = topology_connected_vec(topology, failed, predicate)
    dead = np.zeros(len(subsets), dtype=bool)
    if endpoint_dead:
        for first, second in ENDPOINT_NICS:
            dead |= failed[:, first] & failed[:, second]
    stratum = failed[:, strata].sum(axis=1)
    counts = np.zeros((len(strata) + 1, 3), dtype=np.int64)
    for j in range(len(strata) + 1):
        rows = stratum == j
        counts[j] = rows.sum(), (ok & rows).sum(), (dead & rows).sum()
    return counts


def _rows():
    for spec in DEFAULT_TOPOLOGIES:
        for size in SIZES:
            for predicate in PREDICATES:
                for method in METHODS:
                    yield pytest.param(spec, size, predicate, method, id=f"{spec}-{size}-{predicate}-{method}")


def _spied_call(monkeypatch, topology, fs, predicate, method, seed_key):
    """One grid call; returns its cells and the sweep groups it filled."""
    seen = []
    loop = montecarlo._padded_sweep

    def spy(groups, *args, **kwargs):
        seen.extend(groups)
        return loop(groups, *args, **kwargs)

    for module in (montecarlo, variance, topokernel):
        monkeypatch.setattr(module, "_padded_sweep", spy)
    cells = simulate_topology_grid(
        topology, fs, TRIALS, keyed(SEED, seed_key), predicate=predicate, method=method,
        precision=True,
    )
    (group,) = seen
    return cells, group


@pytest.mark.parametrize("spec,size,predicate,method", _rows())
def test_every_sampled_count_agrees_with_the_exact_truth(monkeypatch, spec, size, predicate, method):
    topology = build_topology(spec, size=size)
    pred = PREDICATES[predicate]
    attached = pred is None and topology.stratified_fn is not None
    if method == "stratified-cv" and not attached:
        with pytest.raises(ValueError, match="stratified-cv"):
            simulate_topology_grid(topology, (1,), 10, keyed(SEED, "refused"), predicate=pred,
                                   method=method)
        return
    width = topology.width
    if method == "crn":
        truth = {}
        for f in F_VALUES:
            if f <= width:
                try:
                    truth[f] = exact_topology_success(topology, f, pred, max_combinations=BUDGET)
                except ValueError:  # more failure sets than the budget: no truth here
                    pass
    else:
        truth = {
            f: _strata_counts(topology, f, pred, method == "stratified-cv")
            for f in F_VALUES
            if f <= width and comb(width, f) <= BUDGET
        }
    if not truth:
        pytest.skip(f"no cell of {topology.name} within {BUDGET} failure sets")
    fs = tuple(truth)
    cells, group = _spied_call(
        monkeypatch, topology, fs, pred, method, f"truth/{topology.name}/{predicate}/{method}"
    )
    for f in fs:
        cell = cells[f]
        where = f"{topology.name} {predicate} {method} f={f}"
        if method == "crn":
            assert cell.trials == TRIALS
            assert binomial_tail_ok(cell.successes, cell.trials, truth[f], ALPHA), (
                where, cell.successes, truth[f],
            )
            assert cell.point == cell.successes / cell.trials
            continue
        counts = truth[f]
        weights = counts[:, 0] / comb(width, f)
        if attached:  # the hub-stratified kernel: stratum 0 sampled, stratum 1 closed form
            (sets, good, dead_sets), (one_sets, one_good, _) = counts[0], counts[1]
            alive = int(group.hists["surv"][f:].sum())
            exact_one = weights[1] * (one_good / one_sets if one_sets else 0.0)
            if method == "stratified":
                assert binomial_tail_ok(alive, TRIALS, good / sets, ALPHA), (where, alive)
                expected = exact_one + weights[0] * alive / TRIALS
            else:
                dead = int(group.hists["dead"][:f].sum())
                assert binomial_tail_ok(dead, TRIALS, dead_sets / sets, ALPHA), (where, dead)
                if dead < TRIALS:
                    p = good / (sets - dead_sets) if sets > dead_sets else 0.0
                    assert binomial_tail_ok(alive, TRIALS - dead, p, ALPHA), (where, alive)
                expected = exact_one + (
                    weights[0] * (1 - dead_sets / sets) * alive / (TRIALS - dead)
                    if dead < TRIALS
                    else 0.0
                )
        else:  # the generic stratified sweep: every stratum with a weight sampled
            expected = 0.0
            for j, hist in group.hists.items():
                sampled = int(hist.sum())
                if sampled == 0 or counts[j, 0] == 0:
                    continue
                alive = int(hist[f:].sum())
                assert binomial_tail_ok(alive, sampled, counts[j, 1] / counts[j, 0], ALPHA), (
                    where, j, alive, sampled,
                )
                expected += weights[j] * alive / sampled
        assert cell.point == pytest.approx(expected, abs=1e-12), where
