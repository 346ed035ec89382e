"""End-to-end determinism: the CLI's outputs are backend-independent.

The acceptance property of the engine refactor — ``--jobs N`` may change
wall time, never bytes.  Quick ``figure2`` and ``availability`` runs under
the serial backend and a two-worker process pool must produce byte-identical
CSVs from the same root seed.
"""

from pathlib import Path

import pytest

from repro.engine import get_spec
from repro.experiments import runner


def _csvs(out: Path) -> dict[str, bytes]:
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert files, f"no CSVs written under {out}"
    return files


@pytest.mark.parametrize("name", ["figure2", "availability"])
def test_quick_csvs_identical_serial_vs_two_workers(tmp_path, name):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert runner.main(["--quick", "--no-metrics", "--out", str(serial), "--jobs", "1", name]) == 0
    assert runner.main(["--quick", "--no-metrics", "--out", str(pooled), "--jobs", "2", name]) == 0
    assert _csvs(serial) == _csvs(pooled)


def test_seed_changes_montecarlo_bytes(tmp_path):
    a = get_spec("figure2").run(f_values=(2,), n_max=10, mc_iterations=500, seed=1)
    b = get_spec("figure2").run(f_values=(2,), n_max=10, mc_iterations=500, seed=2)
    same = get_spec("figure2").run(f_values=(2,), n_max=10, mc_iterations=500, seed=1)
    key = "sim f=2"
    assert a.series["montecarlo"].curves[key][1].tolist() == same.series["montecarlo"].curves[key][1].tolist()
    assert a.series["montecarlo"].curves[key][1].tolist() != b.series["montecarlo"].curves[key][1].tolist()


def test_figure2_curves_use_independent_streams():
    # regression for the old bug: one generator threaded through every curve
    # made each f-curve's draws depend on which curves ran before it.
    full = get_spec("figure2").run(f_values=(2, 3), n_max=12, mc_iterations=500, seed=42)
    alone = get_spec("figure2").run(f_values=(3,), n_max=12, mc_iterations=500, seed=42)
    key = "sim f=3"
    assert (
        full.series["montecarlo"].curves[key][1].tolist()
        == alone.series["montecarlo"].curves[key][1].tolist()
    )


def test_availability_weighted_table_backend_independent():
    serial = get_spec("availability").run(mc_iterations=2_000, seed=5)
    pooled = get_spec("availability").run(mc_iterations=2_000, seed=5, executor=_two_workers())
    assert serial.tables["weighted"].rows == pooled.tables["weighted"].rows


def _two_workers():
    from repro.engine import ParallelExecutor

    return ParallelExecutor(workers=2)
