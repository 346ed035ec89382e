"""Curve-level job granularity: one sweep-kernel job per N, not per (N, f).

The Monte Carlo sweeps decompose into jobs whose values are whole
``{str(f): estimate}`` rows served by the common-random-numbers kernel, so
the plans shrink by the length of the f-grid while every CSV keeps its
schema and the per-job seeding contract keeps subsets reproducible.
"""

import math

import numpy as np

from repro.engine import ParallelExecutor, curve_value, get_spec
from repro.experiments import figure2, figure3


def test_curve_value_reads_rows_and_tolerates_quarantine():
    values = {"mc/n=5": {"2": 0.75, "3": 0.5}, "mc/n=6": "not-a-row"}
    assert curve_value(values, "mc/n=5", "2") == 0.75
    assert math.isnan(curve_value(values, "mc/n=5", "9"))  # f outside the row
    assert math.isnan(curve_value(values, "mc/n=7", "2"))  # quarantined job
    assert math.isnan(curve_value(values, "mc/n=6", "2"))  # malformed value
    assert curve_value(values, "mc/n=7", "2", default=0.0) == 0.0


def test_figure2_plan_is_one_job_per_n():
    plan = figure2.build_plan(f_values=(2, 3, 5), n_max=20, mc_iterations=100)
    assert [job.name for job in plan.jobs] == [f"mc/n={n}" for n in range(3, 21)]
    # each job carries only the f values valid at its N (f < N)
    by_name = {job.name: job.params for job in plan.jobs}
    assert by_name["mc/n=3"]["fs"] == [2]
    assert by_name["mc/n=5"]["fs"] == [2, 3]
    assert by_name["mc/n=20"]["fs"] == [2, 3, 5]


def test_figure2_job_count_shrank_by_the_f_grid():
    plan = figure2.build_plan(mc_iterations=100)  # paper grid: f=2..10, N<64
    per_point = sum(63 - max(2, f + 1) + 1 for f in range(2, 11))
    assert len(plan.jobs) == 61  # one per N in [3, 63]
    assert per_point / len(plan.jobs) > 8  # was 519 jobs before the kernel


def test_figure3_plan_is_one_job_per_iteration_count():
    plan = figure3.build_plan(f_values=(2, 3), iteration_grid=(10, 100), n_max=20)
    assert [job.name for job in plan.jobs] == ["mad/iters=10", "mad/iters=100"]


def test_figure2_montecarlo_row_values_are_checkpointable():
    from repro.engine.checkpoint import decode_value, encode_value

    plan = figure2.build_plan(f_values=(2, 3), n_max=8, mc_iterations=50)
    job = plan.jobs[0]
    row = job.fn(job.params, plan.job_seedseq(job))
    assert decode_value(encode_value(row)) == row
    assert all(isinstance(k, str) for k in row)


def test_figure2_serial_and_pool_rows_byte_identical():
    serial = get_spec("figure2").run(f_values=(2, 3), n_max=12, mc_iterations=300, seed=9)
    pooled = get_spec("figure2").run(
        f_values=(2, 3), n_max=12, mc_iterations=300, seed=9, executor=ParallelExecutor(workers=2)
    )
    for key in ("sim f=2", "sim f=3"):
        assert (
            serial.series["montecarlo"].curves[key][1].tolist()
            == pooled.series["montecarlo"].curves[key][1].tolist()
        )


def test_figure2_overlay_curves_monotone_in_f_at_every_n():
    # common random numbers: at each N the overlay cannot cross between f's
    result = get_spec("figure2").run(f_values=(2, 4, 6), n_max=16, mc_iterations=400, seed=3)
    curves = result.series["montecarlo"].curves
    for lo, hi in ((2, 4), (4, 6)):
        ns_lo, ps_lo = curves[f"sim f={lo}"]
        ns_hi, ps_hi = curves[f"sim f={hi}"]
        shared = np.isin(ns_lo, ns_hi)
        assert (ps_lo[shared] >= ps_hi[: shared.sum()]).all()


def test_crossovers_mc_table_monotone_and_near_analytic():
    result = get_spec("crossovers").run(f_values=(2, 3, 4), mc_iterations=4_000, seed=5)
    rows = result.tables["mc_crossovers"].rows
    assert [row[0] for row in rows] == [2, 3, 4]
    simulated = [row[2] for row in rows]
    assert all(a <= b for a, b in zip(simulated, simulated[1:]))
    for f, analytic, mc in rows:
        assert abs(mc - analytic) <= 6, (f, analytic, mc)


def test_crossovers_without_mc_keeps_legacy_shape():
    result = get_spec("crossovers").run(f_values=(2, 3, 4))
    assert {row[0]: row[1] for row in result.tables["crossovers"].rows} == {2: 18, 3: 32, 4: 45}
    assert "mc_crossovers" not in result.tables
