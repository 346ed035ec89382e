"""The sweep loop's three grid builders equal a per-cell scalar reference, bit for bit.

Each builder reads a whole sweep round — every open group's f-grid, group
after group — as columns in one pass
(:class:`repro.obs.precision.PrecisionGrid`).  The references below are the
per-cell forms the builders replaced: one ``hists[f:].sum()`` and one scalar
Wilson interval (a stratum: one corrected half-width) per ``f`` of each
group.  Over generated rounds of one to four groups of mixed widths (one
group for the topology-stratified builder, whose sweep has one) —
survivor counts of 0 and of every trial, up to 5 M trials, table and
non-table confidences, fixed-count and adaptive targets — every
:class:`~repro.obs.precision.CellPrecision` field must be equal with ``==``.
So must every cell of the ``stats.grid`` event the grid publishes, whole or
as an adaptive subset with mixed ``done`` flags: expanded, each payload is
the per-cell payload flight schema 1 published for it (compared as
serialized JSON, so a NumPy scalar where the reference has a Python number
fails too), and each :func:`~repro.obs.precision.cells_from_event` row is
the one its :class:`~repro.obs.precision.CellPrecision` implies.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import _crn_grid, _round, _SweepGroup
from repro.analysis.stats import _z_for
from repro.analysis.topokernel import _strata_grid
from repro.analysis.variance import (
    _nic_group,
    _stratified_grid,
    endpoint_dead_conditional_mean,
    hub_stratum_weights,
    one_hub_conditional_success,
    site_stratum_weights,
)
from repro.analysis import simulate_full_grid, simulate_grid
from repro.engine import get_spec
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder
from repro.obs.precision import STATS_GRID_KIND, CellPrecision, cells_from_event, grid_payloads
from tests.conftest import keyed

CONFIDENCES = st.sampled_from([0.90, 0.95, 0.99, 0.999, 0.975, 0.9973])
TARGETS = st.sampled_from([None, 0.001, 0.01, 0.05])
ELAPSED = 0.25
#: a bin is empty, small, or large: 17 large bins reach 5 M trials
COUNTS = st.one_of(st.just(0), st.integers(1, 50), st.integers(0, 300_000))


# ------------------------------------------------------------------ reference
def reference_wilson(successes: int, trials: int, confidence: float):
    """The scalar Wilson interval the builders replaced: ``(point, half_width, low, high)``."""
    z = _z_for(confidence)
    p = successes / trials
    z2 = z * z
    denominator = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denominator
    margin = z * np.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denominator
    low, high = max(0.0, float(center - margin)), min(1.0, float(center + margin))
    return p, (high - low) / 2.0, low, high


def reference_centred_half(successes: int, trials: int, confidence: float):
    """The scalar stratum interval: ``(point, half_width)``, the corrected Wilson interval's longer arm."""
    z = _z_for(confidence)
    p = successes / trials
    z2 = z * z
    centre = 2 * successes + z2
    denominator = 2 * (trials + z2)
    low_root = np.sqrt(max(0.0, z2 - 2 - 1 / trials + 4 * p * (trials * (1 - p) + 1)))
    high_root = np.sqrt(max(0.0, z2 + 2 - 1 / trials + 4 * p * (trials * (1 - p) - 1)))
    low = 0.0 if successes == 0 else max(0.0, float((centre - 1 - z * low_root) / denominator))
    high = 1.0 if successes == trials else min(1.0, float((centre + 1 + z * high_root) / denominator))
    return p, max(p - low, high - p)


def reference_stratified(n, f, successes, trials, point, half_width, confidence, target,
                         topology, method):
    return CellPrecision(
        n=n, f=f, successes=successes, trials=trials, confidence=confidence, point=point,
        low=max(0.0, point - half_width), high=min(1.0, point + half_width),
        target_half_width=target, elapsed_s=ELAPSED, topology=topology, method=method,
        std_error=half_width / _z_for(confidence),
    )


def reference_crn(group, f, confidence, target, topology):
    successes = int(group.hists["surv"][f:].sum())
    point, _, low, high = reference_wilson(successes, group.trials, confidence)
    return CellPrecision(
        n=group.n, f=f, successes=successes, trials=group.trials, confidence=confidence,
        point=point, low=low, high=high, target_half_width=target, elapsed_s=ELAPSED,
        topology=topology,
    )


def reference_dual_hub(group, f, control_variate, confidence, target, topology):
    n, trials = group.n, group.trials
    w0, w1, _ = hub_stratum_weights(n, f)
    exact_part = w1 * one_hub_conditional_success(n, f)
    survivors = int(group.hists["surv"][f:].sum())
    if control_variate:
        mu_x = endpoint_dead_conditional_mean(n, f)
        dead = int(group.hists["dead"][:f].sum())
        conditional_trials = survivors + (trials - survivors - dead)
        if conditional_trials == 0:
            estimate, half = 0.0, 1.0 - mu_x
        else:
            point, half_width = reference_centred_half(survivors, conditional_trials, confidence)
            estimate, half = (1.0 - mu_x) * point, (1.0 - mu_x) * half_width
        method = "stratified-cv"
    else:
        estimate, half = reference_centred_half(survivors, trials, confidence)
        method = "stratified"
    return reference_stratified(n, f, survivors, trials, exact_part + w0 * estimate, w0 * half,
                                confidence, target, topology, method)


def reference_strata(group, f, weights, sampled, confidence, target, topology):
    point = half_sq = 0.0
    successes = 0
    for j, trials in enumerate(sampled):
        weight = weights[f][j]
        if weight == 0.0 or trials == 0:
            continue
        alive = int(group.hists[j][f:].sum())
        p, half_width = reference_centred_half(alive, trials, confidence)
        point += weight * p
        half_sq += (weight * half_width) ** 2
        successes += alive
    return reference_stratified(group.n, f, successes, group.trials, point,
                                float(np.sqrt(half_sq)), confidence, target, topology,
                                "stratified")


def reference_payload(cell: CellPrecision, done: bool) -> dict:
    """The per-cell payload flight schema 1 published: one ``stats.cell`` event's fields."""
    fields = {
        "n": cell.n,
        "f": cell.f,
        "successes": cell.successes,
        "trials": cell.trials,
        "confidence": cell.confidence,
        "point": round(cell.point, 8),
        "half_width": round(cell.half_width, 8),
        "done": done,
    }
    if cell.target_half_width is not None:
        fields["target"] = cell.target_half_width
        fields["met"] = cell.met_target
    if cell.topology is not None:
        fields["topology"] = cell.topology
    if cell.method != "wilson":
        fields["method"] = cell.method
    if cell.std_error is not None:
        fields["std_error"] = round(cell.std_error, 10)
    return fields


def reference_row(cell: CellPrecision, done: bool) -> tuple:
    """The ``(key, row)`` a reader keeps of ``cell``'s snapshot."""
    key = (cell.n, cell.f) if cell.topology is None else (cell.topology, cell.n, cell.f)
    return key, {
        "n": cell.n, "f": cell.f, "topology": cell.topology, "successes": cell.successes,
        "trials": cell.trials, "confidence": cell.confidence, "point": round(cell.point, 8),
        "half_width": round(cell.half_width, 8), "target": cell.target_half_width,
        "met": cell.met_target, "done": done, "method": cell.method,
    }


def published_event(grid, entries) -> dict:
    """The one ``stats.grid`` event ``grid.publish(entries)`` emits, through JSON."""
    recorder = FlightRecorder(None)
    set_flight_recorder(recorder)
    try:
        grid.publish(entries)
    finally:
        set_flight_recorder(None)
    (event,) = recorder.drain()
    assert event["kind"] == STATS_GRID_KIND
    return json.loads(json.dumps(event))


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# ------------------------------------------------------------------ harness
def assert_grid_equals(grid, references):
    assert [grid.cell(i) for i in range(len(grid.fs))] == references
    every = [(i, i % 2 == 0) for i in range(len(grid.fs))]
    # an adaptive round publishes the entries not yet frozen
    subset = [(i, i % 3 == 0) for i in range(len(grid.fs)) if i % 3 != 1]
    for entries in (every, subset):
        event = published_event(grid, entries)
        assert [canonical(cell) for cell in grid_payloads(event)] == [
            canonical(reference_payload(references[i], done)) for i, done in entries
        ]
        assert cells_from_event(event) == [reference_row(references[i], done)
                                           for i, done in entries]


def assert_round_equals(grid, groups, reference):
    """A round grid's cells are every group's per-cell references, group after group."""
    assert_grid_equals(grid, [reference(group, f) for group in groups for f in group.fs])


@st.composite
def f_grids(draw, top):
    """A non-empty f-grid over ``[0, top]``, in any order."""
    return tuple(draw(st.lists(st.integers(0, top), min_size=1, max_size=top + 1, unique=True)))


def histogram(draw, width: int) -> np.ndarray:
    return np.array(draw(st.lists(COUNTS, min_size=width + 1, max_size=width + 1)), np.int64)


#: groups in one round: each its own width, f-grid and histograms, all at one trial count
ROUND_SIZES = st.integers(1, 4)


@st.composite
def crn_rounds(draw):
    groups = []
    for _ in range(draw(ROUND_SIZES)):
        width = draw(st.integers(2, 16))
        group = _SweepGroup(width, width, None, draw(f_grids(width)))
        group.hists["surv"][:] = histogram(draw, width)
        groups.append(group)
    trials = max(int(g.hists["surv"].sum()) for g in groups) or draw(st.integers(1, 5_000_000))
    for group in groups:  # the rest of the trials break down at level 0
        group.hists["surv"][0] += trials - group.hists["surv"].sum()
        group.trials = trials
    return groups


@given(crn_rounds(), CONFIDENCES, TARGETS, st.sampled_from([None, "ring(n=4)"]))
@settings(max_examples=150)
def test_crn_grid_equals_the_per_cell_reference(groups, confidence, target, topology):
    grid = _crn_grid(confidence, target, topology)(_round(groups), ELAPSED)
    assert_round_equals(grid, groups,
                        lambda group, f: reference_crn(group, f, confidence, target, topology))


def test_crn_grid_at_five_million_trials():
    group = _SweepGroup(4, 10, None, tuple(range(11)))
    group.hists["surv"][[0, 3, 7, 10]] = [1, 4_999_000, 998, 1]
    wide = _SweepGroup(40, 82, None, (0, 2, 11, 82, 90))
    wide.hists["surv"][[1, 5, 80]] = [2_500_000, 2_499_999, 1]
    group.trials = wide.trials = 5_000_000
    for confidence in (0.95, 0.9973):
        for groups in ([group], [group, wide], [wide, group]):
            grid = _crn_grid(confidence, 0.001)(_round(groups), ELAPSED)
            assert_round_equals(grid, groups,
                                lambda group, f: reference_crn(group, f, confidence, 0.001, None))


@st.composite
def nic_rounds(draw):
    """Threshold ranks ``S`` and endpoint-death ranks ``D >= S``: the two events never overlap."""
    groups = []
    for _ in range(draw(ROUND_SIZES)):
        n = draw(st.integers(2, 8))
        width = 2 * n
        surv = histogram(draw, width)
        dead = np.zeros(width + 1, np.int64)
        for s, count in enumerate(surv):
            dead[draw(st.integers(s, width))] += count
        group = _nic_group(n, None, draw(f_grids(width + 2)))
        group.hists["surv"][:] = surv
        group.hists["dead"][:] = dead
        groups.append(group)
    trials = max(int(g.hists["surv"].sum()) for g in groups) or draw(st.integers(1, 5_000_000))
    for group in groups:  # the rest of the trials fail at level 0, an endpoint dead at once
        rest = trials - group.hists["surv"].sum()
        group.hists["surv"][0] += rest
        group.hists["dead"][0] += rest
        group.trials = trials
    return groups


@given(nic_rounds(), st.booleans(), CONFIDENCES, TARGETS, st.sampled_from([None, "dual-hub(n=4)"]))
@settings(max_examples=150)
def test_dual_hub_stratified_grid_equals_the_per_cell_reference(
    groups, control_variate, confidence, target, topology
):
    build = _stratified_grid(groups, control_variate, confidence, target, topology)
    reference = lambda group, f: reference_dual_hub(  # noqa: E731
        group, f, control_variate, confidence, target, topology
    )
    assert_round_equals(build(_round(groups), ELAPSED), groups, reference)
    # a later round of an adaptive run: the groups still open, the constants as built
    assert_round_equals(build(_round(groups[1:] or groups), ELAPSED), groups[1:] or groups, reference)


def test_dual_hub_cv_grid_with_an_empty_conditional_stratum():
    """Every row dead from f = 1 on: the control-variate stratum has no trials there."""
    group = _nic_group(3, None, (0, 1, 2, 5, 8))
    group.hists["surv"][0] = group.hists["dead"][0] = group.trials = 40
    wide = _nic_group(9, None, (1, 4, 19))
    wide.hists["surv"][[0, 6]] = wide.hists["dead"][[0, 12]] = [10, 30]
    wide.trials = 40
    for confidence in (0.95, 0.975):
        for groups in ([group], [wide, group]):
            grid = _stratified_grid(groups, True, confidence, 0.01, None)(_round(groups), ELAPSED)
            assert_round_equals(grid, groups, lambda group, f: reference_dual_hub(
                group, f, True, confidence, 0.01, None))


@st.composite
def strata_groups(draw):
    """One group, as the topology-stratified sweep has: a histogram and a trial count per stratum."""
    width = draw(st.integers(3, 12))
    sites = draw(st.integers(1, 3))
    group = _SweepGroup(width, width, None, draw(f_grids(width)), tracks=range(sites + 1))
    sampled = []
    for j in range(sites + 1):
        group.hists[j][:] = histogram(draw, width)
        sampled.append(int(group.hists[j].sum()))
    group.trials = sum(sampled)
    weights = {f: site_stratum_weights(width, sites, f) for f in group.fs}
    return group, weights, sampled


@given(strata_groups(), CONFIDENCES, TARGETS)
@settings(max_examples=150)
def test_topology_stratified_grid_equals_the_per_cell_reference(drawn, confidence, target):
    group, weights, sampled = drawn
    columns = np.array([weights[f] for f in group.fs])
    grid = _strata_grid(columns, sampled, confidence, target, "khub(n=3)")(_round([group]), ELAPSED)
    assert_round_equals(grid, [group], lambda group, f: reference_strata(
        group, f, weights, sampled, confidence, target, "khub(n=3)"))


# ------------------------------------------------------------ one event a round
def recorded(run) -> list[dict]:
    """The flight events ``run()`` emits."""
    recorder = FlightRecorder(None, experiment="rounds")
    set_flight_recorder(recorder)
    try:
        run()
    finally:
        set_flight_recorder(None)
    return recorder.drain()


@pytest.mark.parametrize("method", ["crn", "stratified", "stratified-cv"])
def test_an_adaptive_sweep_publishes_one_grid_a_round_and_ends_on_its_cells(method):
    cells = {}

    def run():
        cells.update(simulate_grid(
            8, (1, 3, 5, 9), 200, keyed(7, f"adaptive/{method}"), batch=1_500,
            target_half_width=0.01, max_iterations=12_000, method=method, precision=True,
        ))

    events = recorded(run)
    assert {event["kind"] for event in events} == {STATS_GRID_KIND}
    rounds = [event["trials"] for event in events]
    assert rounds == sorted(set(rounds))  # one event per round
    assert any(len(set(event["done"])) == 2 for event in events)  # mixed done flags
    latest = {}
    for event in events:
        latest.update((cell["f"], cell) for cell in grid_payloads(event))
    assert {f: canonical(cell) for f, cell in latest.items()} == {
        f: canonical(reference_payload(cell, True)) for f, cell in cells.items()
    }


@pytest.mark.parametrize("method", ["crn", "stratified", "stratified-cv"])
@pytest.mark.parametrize("target", [None, 0.005])
def test_a_multi_group_sweep_publishes_one_grid_a_round(method, target):
    fs = {3: (1, 2), 6: (2, 5, 9), 12: (1, 4, 8, 20)}
    rngs = {n: keyed(11, f"rounds/{method}/n={n}") for n in fs}
    cells = {}

    def run():
        cells.update(simulate_full_grid(
            tuple(fs), fs, 400, rngs, batch=800, target_half_width=target,
            max_iterations=6_400, method=method, precision=True,
        ))

    events = recorded(run)
    assert {event["kind"] for event in events} == {STATS_GRID_KIND}
    rounds = [event["trials"] for event in events]
    assert rounds == sorted(set(rounds))  # one event per round
    if target is None:
        assert rounds == [400]
    else:
        assert len(rounds) > 1
    # each round covers every cell still open, group after group in N order
    first = grid_payloads(events[0])
    assert [(cell["n"], cell["f"]) for cell in first] == [(n, f) for n in fs for f in fs[n]]
    for event in events:
        assert event["n"] == sorted(event["n"])
    latest = {}
    for event in events:
        latest.update(((cell["n"], cell["f"]), cell) for cell in grid_payloads(event))
    assert {key: canonical(cell) for key, cell in latest.items()} == {
        (n, f): canonical(reference_payload(cell, True))
        for n, row in cells.items() for f, cell in row.items()
    }


def test_quick_figure3_publishes_one_grid_a_column():
    spec = get_spec("figure3")
    kwargs = spec.kwargs("quick")
    events = recorded(lambda: spec.run(**kwargs))
    grids = [event for event in events if event["kind"] == STATS_GRID_KIND]
    assert [event["trials"] for event in grids] == list(kwargs["iteration_grid"])
    domain = [(n, f) for n in range(3, kwargs["n_max"] + 1) for f in range(2, 11) if f < n]
    for event in grids:
        assert sorted(zip(event["n"], event["f"])) == domain
