"""Replay of every Monte Carlo estimator against values pinned before the one-loop refactor.

``data/estimator_values.json`` was recorded at the commit *before*
the sweep loops and per-point batch loops were collapsed into
``montecarlo._padded_sweep`` (``python -m tests.analysis.test_estimator_values``
with the parent's ``src`` on ``PYTHONPATH``), and re-recorded when the
stratified cells took the continuity-corrected half-width (the adaptive
stratified calls moved, nothing else), when the sweep's keys became
32-bit halves of raw PCG64 words, and when the topology-stratified cells
took the corrected half-width too (the adaptive calls on a ``topo-strat``
stream moved, nothing else).  It holds ``repr()`` of every
returned float and ``(successes, trials, point, low, high)`` of every returned
``CellPrecision`` for the call table below; calls that take a shared ``rng=``
also pin the generator's next draw, i.e. how much of the stream the call
consumed.  Entries recorded through since-removed entry points (a point, a
curve, an all-pairs cell, the one-N stratified grid, a one-f MAD, a MAD grid
on a shared stream) replay as the grid calls those were, and entries
recorded with ``seed=`` hand in the keyed generator the estimator used to
spawn (``keyed(SEED, <its key>)``).  Do not re-record it to make a refactor
pass: a moved value means the estimator changed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    mean_absolute_deviation_grid,
    simulate_full_grid,
    simulate_grid,
    simulate_topology_grid,
    simulate_weighted_success,
    stratified_success_probability,
    success_probability,
)
from repro.obs.precision import CellPrecision
from repro.topology import AllTerminalsConnected, TerminalQuorum, build_topology, dual_hub_cluster
from tests.conftest import grid_stream, keyed

DATA = Path(__file__).parent / "data" / "estimator_values.json"
SEED = 20_000_914
METHODS = ("crn", "stratified", "stratified-cv")
#: small batches so fixed runs take several rounds and adaptive runs both
#: freeze cells early and run others into the budget
FIXED = {"iterations": 2_500, "batch": 1_000}
ADAPTIVE = {"iterations": 200, "batch": 1_500, "target_half_width": 0.01, "max_iterations": 12_000}
GRID_FS = {2: (0, 1, 2, 3, 6), 3: (1, 2, 4), 8: (1, 3, 5, 9), 63: (2, 5, 10, 40)}
FULL_NS = (4, 9, 20)
FULL_FS = {4: (1, 2, 3), 9: (2, 4, 8), 20: (3, 10)}
FAMILIES = ("dual-hub", "khub:hubs=3", "fattree2", "fattree3", "multicluster")
PREDICATES = {
    "default": None,
    "all-terminals": AllTerminalsConnected(),
    "quorum": TerminalQuorum(0.5),
}


def _with_rng(call):
    """Run ``call(rng)`` on a fresh generator and pin what it left of the stream."""

    def thunk():
        rng = np.random.default_rng(SEED)
        return {"value": call(rng), "next": float(rng.random())}

    return thunk


def _topology_stream(topology, predicate, method: str) -> np.random.Generator:
    if method == "crn":
        return keyed(SEED, f"topo-grid/{topology.name}")
    if predicate is None and topology.stratified_fn is not None:  # the dual-hub kernel's key
        return grid_stream(SEED, topology.meta["n"], method)
    return keyed(SEED, f"topo-strat/{topology.name}")


def _calls() -> dict:
    calls = {}
    for n, fs in GRID_FS.items():
        for method in METHODS:
            for two_hop in (True, False):
                for mode, kwargs in (("fixed", FIXED), ("adaptive", ADAPTIVE)):
                    common = {"two_hop": two_hop, "method": method, **kwargs}
                    key = f"grid/n={n}/{method}/two_hop={two_hop}/{mode}"
                    calls[f"{key}/seed"] = lambda n=n, fs=fs, common=common: simulate_grid(
                        n, fs, rng=grid_stream(SEED, n, common["method"]), **common
                    )
                    calls[f"{key}/rng"] = _with_rng(
                        lambda rng, n=n, fs=fs, common=common: simulate_grid(n, fs, rng=rng, **common)
                    )
        calls[f"grid/n={n}/crn/precision"] = lambda n=n, fs=fs: simulate_grid(
            n, fs, rng=keyed(SEED, f"mc-grid/n={n}"), precision=True, confidence=0.99, **FIXED
        )
        # once the one-N stratified grid with a cell label; the label is not pinned
        calls[f"stratified_grid/n={n}/no-cv/labelled"] = lambda n=n, fs=fs: simulate_topology_grid(
            dual_hub_cluster(n), fs, rng=keyed(SEED, f"mc-strat/n={n}"), method="stratified",
            precision=True, **FIXED
        )
    for method in METHODS:
        for mode, kwargs in (("fixed", FIXED), ("adaptive", ADAPTIVE)):
            common = {"method": method, **kwargs}
            key = f"full/{method}/{mode}"
            calls[f"{key}/seed"] = lambda common=common: simulate_full_grid(
                FULL_NS,
                FULL_FS,
                rngs={n: grid_stream(SEED, n, common["method"]) for n in FULL_NS},
                **common,
            )
            calls[f"{key}/rngs"] = lambda common=common: simulate_full_grid(
                FULL_NS,
                FULL_FS,
                rngs={n: np.random.default_rng([SEED, n]) for n in FULL_NS},
                **common,
            )
            calls[f"{key}/rng"] = _with_rng(
                lambda rng, common=common: simulate_full_grid(
                    FULL_NS, FULL_FS, rngs=dict.fromkeys(FULL_NS, rng), **common
                )
            )
    calls["full/crn/shared-fs/two_hop=False"] = lambda: simulate_full_grid(
        FULL_NS,
        (1, 2, 5),
        rngs={n: keyed(SEED, f"mc-grid/n={n}") for n in FULL_NS},
        two_hop=False,
        **FIXED,
    )
    for family in FAMILIES:
        for label, predicate in PREDICATES.items():
            for method in ("crn", "stratified"):
                for mode, kwargs in (("fixed", FIXED), ("adaptive", ADAPTIVE)):
                    key = f"topo-grid/{family}/{label}/{method}/{mode}"
                    common = {"predicate": predicate, "method": method, **kwargs}
                    calls[f"{key}/seed"] = lambda family=family, common=common: _seeded_topology_grid(
                        build_topology(family, size=4), (1, 2, 4), **common
                    )
            calls[f"topo-grid/{family}/{label}/crn/fixed/rng"] = _with_rng(
                lambda rng, family=family, predicate=predicate: simulate_topology_grid(
                    build_topology(family, size=4), (1, 2, 4), rng=rng, predicate=predicate, **FIXED
                )
            )
            # a point is the one-cell grid, once on its own per-point stream
            calls[f"topo-point/{family}/{label}/seed"] = (
                lambda family=family, predicate=predicate: _topology_point(
                    build_topology(family, size=4), predicate, None
                )
            )
            calls[f"topo-point/{family}/{label}/rng"] = _with_rng(
                lambda rng, family=family, predicate=predicate: _topology_point(
                    build_topology(family, size=4), predicate, rng
                )
            )
    calls["topo-grid/dual-hub/default/stratified-cv/fixed/seed"] = lambda: _seeded_topology_grid(
        build_topology("dual-hub", size=4), (1, 2, 4), predicate=None, method="stratified-cv", **FIXED
    )
    for n, f in ((2, 0), (2, 3), (8, 3), (8, 9), (20, 4), (63, 5)):
        for two_hop in (True, False):
            key = f"point/n={n}/f={f}/two_hop={two_hop}"
            calls[f"{key}/seed"] = lambda n=n, f=f, two_hop=two_hop: simulate_grid(
                n, (f,), rng=keyed(SEED, f"mc/n={n}/f={f}"), two_hop=two_hop, **FIXED
            )[f]
            calls[f"{key}/rng"] = _with_rng(
                lambda rng, n=n, f=f, two_hop=two_hop: simulate_grid(
                    n, (f,), rng=rng, two_hop=two_hop, **FIXED
                )[f]
            )
            for cv in (True, False):
                calls[f"strat-{key}/cv={cv}/seed"] = (
                    lambda n=n, f=f, two_hop=two_hop, cv=cv: stratified_success_probability(
                        n, f, rng=keyed(SEED, f"mc-strat/n={n}/f={f}"), two_hop=two_hop,
                        control_variate=cv, **FIXED
                    )
                )
            calls[f"strat-{key}/rng"] = _with_rng(
                lambda rng, n=n, f=f, two_hop=two_hop: stratified_success_probability(
                    n, f, rng=rng, two_hop=two_hop, **FIXED
                )
            )
    calls["strat-point/allocations"] = lambda: stratified_success_probability(
        8, 3, 3_000, rng=keyed(SEED, "mc-strat/n=8/f=3"), allocations=(1_500, 1_000, 500), batch=700
    )
    for n, f in ((2, 2), (8, 3), (16, 4), (32, 5)):
        calls[f"allpairs/n={n}/f={f}"] = _with_rng(
            lambda rng, n=n, f=f: simulate_topology_grid(
                dual_hub_cluster(n), (f,), 2_500, rng, batch=1_000, predicate=AllTerminalsConnected()
            )[f]
        )
    for hub_weight, nic_weight in ((1.0, 1.0), (36.5, 1.0), (0.25, 3.0)):
        calls[f"weighted/hub={hub_weight}/nic={nic_weight}"] = _with_rng(
            lambda rng, hub_weight=hub_weight, nic_weight=nic_weight: simulate_weighted_success(
                16, 3, 2_500, rng, hub_weight=hub_weight, nic_weight=nic_weight, batch=1_000
            )
        )
    # a curve is one one-cell grid per N, on a keyed stream each or one shared stream
    calls["curve/seed"] = lambda: [
        simulate_grid(n, (3,), 800, keyed(SEED, f"mc/n={n}/f=3"))[3] for n in range(4, 13)
    ]
    calls["curve/rng"] = _with_rng(
        lambda rng: [simulate_grid(n, (3,), 800, rng, two_hop=False)[3] for n in range(4, 13)]
    )
    # a one-f MAD is a one-cell grid per N, on a keyed stream each or one shared stream
    calls["mad/seed"] = lambda: _mad(
        {n: (3,) for n in range(4, 21)}, lambda n: keyed(SEED, f"mad/f=3/iters=500/n={n}")
    )[3]
    calls["mad/rng"] = _with_rng(lambda rng: _mad({n: (3,) for n in range(4, 21)}, lambda n: rng)[3])
    for method in METHODS:
        calls[f"mad-grid/{method}/seed"] = lambda method=method: mean_absolute_deviation_grid(
            (2, 3, 6), 500, n_max=20, seed=SEED, method=method
        )
        # a shared stream walked the Ns in order, one grid call each
        calls[f"mad-grid/{method}/rng"] = _with_rng(
            lambda rng, method=method: _mad(
                {n: tuple(f for f in (2, 3, 6) if n > f) for n in range(3, 21)}, lambda n: rng, method
            )
        )
        calls[f"mad-grid/{method}/adaptive"] = lambda method=method: mean_absolute_deviation_grid(
            (2, 3), 300, n_max=16, seed=SEED, target_half_width=0.02, max_iterations=6_000, method=method
        )
    return calls


def _mad(per_n_fs: dict, stream, method: str = "crn") -> dict:
    """Mean |estimate - Equation 1| per f, over one ``simulate_grid`` call per N on ``stream(n)``."""
    deviations: dict = {}
    for n, fs in per_n_fs.items():
        estimates = simulate_grid(n, fs, 500, stream(n), method=method)
        for f in fs:
            deviations.setdefault(f, []).append(abs(estimates[f] - success_probability(n, f)))
    return {f: float(np.mean(values)) for f, values in sorted(deviations.items())}


def _seeded_topology_grid(topology, fs, predicate, method, **kwargs):
    rng = _topology_stream(topology, predicate, method)
    return simulate_topology_grid(topology, fs, rng=rng, predicate=predicate, method=method, **kwargs)


def _topology_point(topology, predicate, rng):
    rng = rng if rng is not None else keyed(SEED, f"topo/{topology.name}/f=3")
    return simulate_topology_grid(topology, (3,), rng=rng, predicate=predicate, **FIXED)[3]


CALLS = _calls()


def _encode(value):
    if isinstance(value, dict):
        return {str(key): _encode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, CellPrecision):
        return [value.successes, value.trials, repr(value.point), repr(value.low), repr(value.high)]
    return repr(float(value))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DATA.read_text())


def test_the_table_and_the_recording_name_the_same_calls(recorded):
    assert sorted(recorded) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_estimator_replays_its_recorded_value(name, recorded):
    assert _encode(CALLS[name]()) == recorded[name]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({name: _encode(CALLS[name]()) for name in sorted(CALLS)}, indent=1) + "\n")
    print(f"recorded {len(CALLS)} calls to {DATA}")
