"""Tests for the extension experiments: gray failure, all-pairs, availability."""

import math

from repro.experiments import availability, grayfailure, wholecluster


def test_grayfailure_tradeoff_shape():
    result = grayfailure.run(loss_rates=(0.0, 0.05), retry_values=(1, 2, 3), sim_seconds=30.0)
    fp = {(row[0], row[1]): row[2] for row in result.tables["false_positives"].rows}
    # no loss -> no false positives at any threshold
    assert fp[(0.0, 1)] == 0 and fp[(0.0, 2)] == 0
    assert all(row[3] == 0 for row in result.tables["false_positives"].rows if row[0] == 0.0)
    # under loss, a higher threshold suppresses false positives
    assert fp[(0.05, 3)] <= fp[(0.05, 2)] < fp[(0.05, 1)]
    lat = {row[0]: row[1] for row in result.tables["detection_latency"].rows}
    # patience costs detection latency on clean networks
    assert lat[1] < lat[2]
    # a real failure is still found within a few sweeps despite 5% loss
    lossy = {row[0]: row[2] for row in result.tables["detection_latency"].rows}
    assert lossy[2] < 4 * 0.5 + 1.0


def test_wholecluster_orderings():
    result = wholecluster.run(f_values=(3,), n_max=30, iid_n_values=(4, 32), mc_iterations=5_000)
    curves = result.series["conditional"].curves
    ns, pair_ps = curves["pair f=3"]
    _, all_ps = curves["all f=3"]
    assert (all_ps <= pair_ps + 1e-12).all()
    iid = {(row[0], row[1]): (row[2], row[3]) for row in result.tables["iid_regime"].rows}
    rho = result.tables["iid_regime"].rows[0][0]
    pair_small, all_small = iid[(rho, 4)]
    pair_large, all_large = iid[(rho, 32)]
    assert pair_large >= pair_small - 1e-9   # pairwise improves with N
    assert all_large < all_small             # whole-cluster decays with N
    # closed form vs MC agreement
    for row in result.tables["mc_check"].rows:
        assert row[4] < 0.02


def test_scenariosuite_runs_all_shipped(tmp_path):
    from repro.experiments import scenariosuite

    result = scenariosuite.run()
    rows = result.tables["suite"].rows
    assert len(rows) >= 4
    names = [row[0] for row in rows]
    assert "nic-failure-drs" in names
    for row in rows:
        assert "HUNG" not in row[-1]


def test_scenariosuite_missing_dir_raises(tmp_path):
    import pytest as _pytest

    from repro.experiments import scenariosuite

    with _pytest.raises(FileNotFoundError):
        scenariosuite.run(tmp_path)


def test_availability_orderings():
    result = availability.run(n_values=(4, 24), mc_iterations=20_000)
    for row in result.tables["downtime"].rows:
        n, static_dt, reactive_dt, drs_dt, saved, nines = row
        assert static_dt > reactive_dt > drs_dt
        assert saved > 0
        assert nines > 3
        assert not math.isnan(drs_dt)
    for row in result.tables["weighted"].rows:
        n, f, ratio, uniform, weighted, diff = row
        assert ratio > 1
        assert diff < 0  # hub-heavy failures hurt
