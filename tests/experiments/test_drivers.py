"""End-to-end tests of each experiment driver at reduced scale."""

import math

import pytest

from repro.engine import get_spec
from repro.experiments import ablations, failover, figure1, motivation


def test_figure1_checkpoints_and_des_validation():
    result = figure1.run(n_max=30, validate_des=True, des_nodes=4, des_seconds=1.0)
    readoff = {row[0]: row for row in result.tables["readoff"].rows}
    # monotone: larger budget supports more nodes within 1s
    assert readoff["5%"][1] < readoff["10%"][1] < readoff["25%"][1]
    # 10% budget at N=90 near one second (paper checkpoint)
    assert 0.9 < readoff["10%"][2] < 1.2
    # DES-measured probe fraction within 10% of target
    for row in result.tables["des_validation"].rows:
        assert abs(row[3] - 1.0) < 0.10, row
    # pacing holds the *fraction* as the cluster grows (the sweep stretches instead)
    at_four = {row[0]: row[2] for row in result.tables["des_validation"].rows}["10%"]
    assert figure1.measured_probe_fraction(10, 0.10, 1.0) == pytest.approx(at_four, rel=0.15)


def test_figure2_curves_rise_toward_one():
    result = get_spec("figure2").run(f_values=(2, 5), n_max=40, mc_iterations=500)
    eq = result.series["equation1"].curves
    for name, (ns, ps) in eq.items():
        assert ps[-1] > ps[0]
        assert ps[-1] > 0.9
    mc = result.series["montecarlo"].curves
    for f in (2, 5):
        # the overlay tracks the closed form pointwise
        assert (abs(eq[f"f={f}"][1] - mc[f"sim f={f}"][1]) < 0.05).all()
    endpoints = result.tables["endpoints"].rows
    assert [row[0] for row in endpoints] == [2, 5]


def test_figure3_mad_decreases():
    result = get_spec("figure3").run(f_values=(3,), iteration_grid=(10, 1_000), n_max=25)
    xs, mad = result.series["mad"].curves["f=3"]
    assert mad[-1] < mad[0]
    assert result.tables["at_1000_iterations"].rows[0][1] < 0.02


def test_crossovers_match_paper():
    result = get_spec("crossovers").run(f_values=(2, 3, 4))
    rows = {row[0]: row[1] for row in result.tables["crossovers"].rows}
    assert rows == {2: 18, 3: 32, 4: 45}
    assert any("reproduced exactly: True" in note for note in result.notes)


def test_motivation_near_13_percent():
    result = motivation.run(fleet_years=10, seed=0)
    headline = result.tables["headline"].rows[0]
    assert abs(headline[1] - 0.13) < 0.03


def test_failover_drs_beats_reactive():
    drs = failover.run_one("drs", "peer-nic", post_failure_s=20.0)
    reactive = failover.run_one("reactive", "peer-nic", post_failure_s=20.0)
    static = failover.run_one("static", "peer-nic", post_failure_s=20.0)
    assert drs.recovered and reactive.recovered and not static.recovered
    assert drs.worst_latency_s < reactive.worst_latency_s
    assert drs.repair_latency_s < reactive.repair_latency_s
    # DRS repairs within about one sweep (1 s) plus probe retries and never
    # stalls the application beyond a couple of TCP RTOs; reactive cannot
    # beat its 9 s timeout quantum
    assert drs.repair_latency_s < 1.5 and drs.worst_latency_s < 4.0
    assert reactive.repair_latency_s >= 9.0
    # distance-vector recovers from a hub loss too, no sooner than its route
    # timeout less one advertisement
    distvector = failover.run_one("distvector", "hub", post_failure_s=20.0)
    assert distvector.recovered and distvector.repair_latency_s >= 6.0
    assert drs.delivered_fraction == 1.0
    assert static.delivered_fraction < 1.0


def test_failover_crossed_scenario_two_hop():
    drs = failover.run_one("drs", "crossed", post_failure_s=20.0)
    assert drs.recovered and drs.delivered_fraction == 1.0
    assert drs.worst_latency_s < 6.0


def test_failover_matrix_runs():
    result = failover.run(protocols=("drs", "static"), scenarios=("hub",), post_failure_s=10.0)
    assert len(result.tables["matrix"].rows) == 2


def test_desvalidation_within_noise():
    result = get_spec("desval").run(n=6, f_values=(2, 4), replicates=20, seed=5)
    for row in result.tables["validation"].rows:
        measured, expected, diff, two_sigma = row[3], row[4], row[5], row[6]
        assert abs(diff) <= max(2 * two_sigma, 0.15)
        assert 0 <= measured <= 1


def test_desvalidation_survivability_improves_with_n():
    # the paper's headline trend, on the live protocol
    result = get_spec("desval-curve").run(f=3, n_values=(4, 12), replicates=10, seed=7)
    small, large = (row[1] for row in result.tables["curve_points"].rows)
    assert large >= small


def test_desvalidation_curve_tracks_equation1():
    result = get_spec("desval-curve").run(f=2, n_values=(4, 6), replicates=25, seed=9)
    rows = result.tables["curve_points"].rows
    assert len(rows) == 2
    for n, measured, analytic, diff, two_sigma in rows:
        assert abs(diff) < max(0.2, 2 * two_sigma)  # coarse at 25 replicates
    assert "Equation 1" in result.series["curve"].curves
    assert "DES (live DRS)" in result.series["curve"].curves


def test_ablations_orderings():
    result = get_spec("ablations").run(
        n_values=(10, 30),
        f_values=(2,),
        mc_iterations=20_000,
        sweep_periods=(0.5, 2.0),
        run_des=True,
    )
    for row in result.tables["survivability"].rows:
        n, f, full, no_two_hop, single = row
        assert no_two_hop <= full + 0.01
        assert single < full
    periods = result.tables["sweep_period"].rows
    # longer sweep -> later detection
    assert periods[0][1] < periods[1][1]
    # longer sweep -> less probe traffic
    assert periods[0][2] > periods[1][2]


def test_ablations_gains_limits_and_period_bound():
    from repro.analysis import success_probability

    result = get_spec("ablations").run(
        n_values=(5, 16, 40), f_values=(4,), mc_iterations=20_000, sweep_periods=(0.25, 1.0, 4.0)
    )
    for n in (8, 16, 32, 63):
        for f in (2, 3, 4):
            assert success_probability(n, f) > ablations.single_backplane_success(n, f)
    gain = {row[0]: row[2] - row[3] for row in result.tables["survivability"].rows}
    # the crossed-endpoint cases two-hop saves are a measurable share, and
    # matter most in small clusters (the crossed term vanishes as N grows)
    assert gain[16] > 0.001
    assert gain[5] > gain[40]
    # a second backplane converges to 1; one is capped by hub + endpoint exposure
    assert success_probability(1000, 2) > 0.99999
    assert ablations.single_backplane_success(1000, 2) < 0.999
    periods = result.tables["sweep_period"].rows
    assert [row[1] for row in periods] == sorted(row[1] for row in periods)
    assert [row[2] for row in periods] == sorted((row[2] for row in periods), reverse=True)
    for period, latency, _ in periods:
        assert latency <= 2 * period + 0.3  # retries * sweep + timeout


def test_single_backplane_closed_form_brute_force():
    from itertools import combinations

    from repro.experiments.ablations import single_backplane_success

    for n in (3, 5, 7):
        for f in range(0, n + 2):
            good = total = 0
            for failure_set in combinations(range(n + 1), f):
                failed = set(failure_set)
                total += 1
                hub_up = 0 not in failed
                a_up = 1 not in failed
                b_up = 2 not in failed
                good += hub_up and a_up and b_up
            assert single_backplane_success(n, f) == pytest.approx(good / total), (n, f)


def test_runner_cli_list_and_unknown(capsys):
    from repro.experiments.runner import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figure2" in out and "desval" in out
    with pytest.raises(SystemExit):
        main(["not-an-experiment"])


def test_runner_cli_runs_one(tmp_path, capsys):
    from repro.experiments.runner import main

    assert main(["crossovers", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "crossovers.txt").exists()
    assert (tmp_path / "crossovers_crossovers.csv").exists()
