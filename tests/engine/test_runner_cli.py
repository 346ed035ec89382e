"""The spec-registry-backed CLI: --jobs, --seed, and manifest provenance."""

import json

import pytest

from repro.experiments import runner


def test_list_prints_all_registered_specs(capsys):
    assert runner.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("figure1", "figure2", "desval", "scenarios", "scaling"):
        assert name in out


def test_jobs_zero_means_all_cores(tmp_path):
    code = runner.main(
        ["--quick", "--no-metrics", "--jobs", "0", "--out", str(tmp_path), "scaling"]
    )
    assert code == 0
    assert (tmp_path / "scaling_scaling.csv").exists()


def test_negative_jobs_rejected(tmp_path):
    with pytest.raises(SystemExit):
        runner.main(["--quick", "--jobs", "-3", "--out", str(tmp_path), "figure2"])


def test_seed_override_reaches_sweep_experiments(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--quick", "--no-metrics", "figure2"]
    assert runner.main([*args, "--out", str(a), "--seed", "1"]) == 0
    assert runner.main([*args, "--out", str(b), "--seed", "99"]) == 0
    assert (a / "figure2_equation1.csv").read_bytes() == (b / "figure2_equation1.csv").read_bytes()
    assert (a / "figure2_montecarlo.csv").read_bytes() != (b / "figure2_montecarlo.csv").read_bytes()


def test_manifest_records_engine_provenance(tmp_path):
    assert runner.main(["--quick", "--jobs", "2", "--out", str(tmp_path), "availability"]) == 0
    manifest = json.loads((tmp_path / "availability.manifest.json").read_text())
    assert manifest["extra"]["backend"] == "process-pool"
    assert manifest["extra"]["workers"] == 2
    engine = manifest["config"]["engine"]
    assert engine["backend"] == "process-pool"
    assert engine["workers"] == 2
    assert engine["jobs"] == len(engine["job_seeds"]) > 0


def test_non_parallel_experiment_ignores_jobs(tmp_path):
    assert runner.main(["--quick", "--jobs", "2", "--out", str(tmp_path), "figure1"]) == 0
    manifest = json.loads((tmp_path / "figure1.manifest.json").read_text())
    assert manifest["extra"]["backend"] == "direct"
    assert manifest["extra"]["workers"] == 1


def test_topology_restricts_the_sweep_to_one_family(tmp_path, capsys):
    args = ["topologysweep", "--quick", "--topology", "khub:hubs=3", "--no-flight"]
    assert runner.main([*args, "--out", str(tmp_path)]) == 0
    mc = sorted(p.name for p in tmp_path.glob("topologysweep_mc_*.csv"))
    assert mc == ["topologysweep_mc_khub_hubs3.csv"]
    for table in ("exact_check", "families"):
        rows = (tmp_path / f"topologysweep_{table}.csv").read_text().splitlines()[1:]
        assert rows and {row.partition(",")[0] for row in rows} == {"khub:hubs=3"}, table
    with pytest.raises(SystemExit) as exit_info:
        runner.main(["topologysweep", "--quick", "--topology", "nosuch", "--out", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert "unknown topology family 'nosuch'" in capsys.readouterr().err
