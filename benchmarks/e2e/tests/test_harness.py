"""Self-tests of the benchmark harness (not of the program it measures)."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
from estimators import quartiles, summarize, worsening
from names import END_TO_END, PER_LAYER
from tracing import SpanRecorder, merge_spans, self_time_by_name, self_times, union_length
from workloads import BY_NAME, WORKLOADS

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- names and caps
def test_names_units_and_caps():
    assert len(WORKLOADS) == 8 and sum(w.gated for w in WORKLOADS) >= 2
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = [w.name for w in WORKLOADS] + [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in (*END_TO_END, *PER_LAYER):
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for workload in WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
        assert workload.reference is None or workload.reference in BY_NAME


def test_references_share_their_plan():
    """Digest equality only means something when both sides run the same plan."""
    for workload in WORKLOADS:
        if workload.reference is not None:
            other = BY_NAME[workload.reference]
            assert (workload.spec, workload.kwargs, workload.smoke) == (
                other.spec, other.kwargs, other.smoke)


def test_benchmark_json_agrees_with_the_harness():
    doc = benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS if w.gated]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # the whole driver schedule fits its budget with one run's slack per workload
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 4) <= 3420


def test_result_line_has_exactly_the_contract_keys():
    tally = run.Tally()
    tally.add_report({"workload": "w", "jobs": 3, "retries": 0, "quarantined": 0, "resumed": 0,
                      "checks": [["c", True, ""]]})
    line = json.loads(run.result_line(tally, {"wall_s": 1.25, "setup_s": 0.5}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 4, 0)
    assert line["metrics"]["wall_s"] == {"value": 1.25, "unit": "s"}


def test_tally_counts_retries_resumes_and_failed_checks():
    tally = run.Tally()
    tally.add_report({"workload": "w", "jobs": 10, "retries": 1, "quarantined": 1, "resumed": 2,
                      "checks": [["a", True, ""], ["b", False, "why"]]})
    assert (tally.attempted, tally.failed) == (12, 5)
    assert tally.failed_share == pytest.approx(5 / 12)
    same = {"digests": {"x.csv": "1"}, "seed": 1}
    tally.add_digest_check(BY_NAME["fig2_crn_pool2"], same, same)
    assert (tally.attempted, tally.failed) == (13, 5)
    tally.add_digest_check(BY_NAME["fig2_crn_pool2"], same, {"digests": {"x.csv": "2"}, "seed": 1})
    assert (tally.attempted, tally.failed) == (14, 6)


# ------------------------------------------------------------------ estimators
def test_best_of_k_and_quartiles():
    reps = [5.0, 3.0, 9.0, 4.0, 8.0, 6.0, 7.0]
    q1, q2, q3 = statistics.quantiles(reps, n=4)
    assert quartiles(reps) == (q1, q2, q3) == (4.0, 6.0, 8.0)
    low = summarize(reps, "lower", "best")
    assert low == {"value": 3.0, "median": 6.0, "q1": 4.0, "q3": 8.0, "n": 7}
    assert summarize(reps, "higher", "best")["value"] == 9.0
    assert summarize(reps, "lower", "median")["value"] == 6.0
    assert summarize([2.5], "lower", "best") == {"value": 2.5, "median": 2.5, "q1": 2.5,
                                                   "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summarize([], "lower", "best")
    with pytest.raises(ValueError):
        summarize(reps, "lower", "mean")


def test_worsening_follows_the_metric_direction():
    assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert worsening(10.0, 9.0, "higher") == pytest.approx(0.1)


def test_check_tolerances_hold_at_every_trial_count():
    import math

    import checks

    sigma = math.sqrt(0.25 / 40_000)
    assert 6.5 * sigma < checks.binomial_tolerance(0.5, 40_000) < 7.0 * sigma
    # the cell a 5-sigma rule rejected on seed 1001: 8 of 10 at p = 0.9972
    assert abs(0.8 - 0.9972) <= checks.binomial_tolerance(0.9972, 10)
    assert not abs(0.5 - 0.9972) <= checks.binomial_tolerance(0.9972, 40_000)
    assert checks.binomial_tail_ok(4, 4, 0.95) and checks.binomial_tail_ok(2, 4, 0.95)
    assert not checks.binomial_tail_ok(0, 30, 0.95)
    mean, spread = checks.expected_mad(10, 1_000, 63)
    assert 0.006 < mean < 0.009 and mean + checks.MAD_SIGMAS * spread < 0.02


# ----------------------------------------------------------------------- spans
def test_self_time_subtracts_the_union_of_children():
    tracer = SpanRecorder("w")
    root = tracer.add("root", 0.0, 10.0)
    a = tracer.add("a", 1.0, 4.0, parent=root)
    tracer.add("a", 3.0, 6.0, parent=root)  # overlaps the first: a pool's two workers
    tracer.add("b", 9.0, 12.0, parent=root)  # runs past its parent: clipped to it
    tracer.add("leaf", 1.5, 2.0, parent=a)
    assert union_length([(1.0, 4.0), (3.0, 6.0), (9.0, 10.0)]) == 6.0
    times = self_times(tracer.spans)
    assert times[root] == pytest.approx(10.0 - 6.0)
    assert times[a] == pytest.approx(3.0 - 0.5)
    assert self_time_by_name(tracer.spans) == pytest.approx(
        {"root": 4.0, "a": 2.5 + 3.0, "b": 3.0, "leaf": 0.5})


def test_span_context_nests_and_merge_keeps_trees_apart():
    first, second = SpanRecorder("w1"), SpanRecorder("w2")
    with first.span("outer") as outer:
        with first.span("inner"):
            pass
    with second.span("solo"):
        pass
    assert first.spans[1]["parent"] == outer
    assert first.spans[0]["start"] <= first.spans[1]["start"] <= first.spans[1]["end"]
    merged = merge_spans(first.spans, second.spans)
    assert [s["id"] for s in merged] == [0, 1, 2]
    assert [s["parent"] for s in merged] == [None, 0, None]
    assert first.spans[1]["id"] == 1 and second.spans[0]["id"] == 0  # inputs untouched


# ------------------------------------------------------------ the same program
def test_child_writes_the_bytes_drs_experiments_writes(tmp_path):
    """Full profile, same seed: the child's figure2 CSVs equal the CLI's."""
    child.use_checkout_source()  # also puts src on PYTHONPATH for the CLI run below
    import repro.experiments  # noqa: F401 - registers every ExperimentSpec
    from repro.engine import get_spec

    seed = 2000
    full = dataclasses.replace(BY_NAME["fig2_crn_serial"], kwargs=get_spec("figure2").kwargs("full"))
    ours = tmp_path / "child"
    ours.mkdir()
    report = child.run_workload(full, seed, ours, telemetry=True, tracer=None, smoke=False)
    assert all(ok for _, ok, _ in report["checks"]), report["checks"]
    theirs = tmp_path / "cli"
    subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "figure2", "--seed", str(seed),
         "--out", str(theirs)],
        check=True, capture_output=True, env=run.child_env(), timeout=300,
    )
    names = sorted(p.name for p in theirs.glob("*.csv"))
    assert names == sorted(report["digests"]) and names
    for name in names:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


def test_child_refuses_a_used_output_directory(tmp_path):
    (tmp_path / "figure2.checkpoint.jsonl").write_text("")
    with pytest.raises(SystemExit, match="not empty"):
        child.run_workload(BY_NAME["fig2_crn_serial"], 1, tmp_path, True, None, True)


def test_peak_rss_is_the_childs_own_not_its_parents():
    """ru_maxrss survives exec; the child's figure must not start at our size."""
    ballast = bytearray(300 << 20)  # make this process 300 MiB larger than a bare child
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    code = ("import resource, sys; sys.path.insert(0, sys.argv[1]); import child; "
            "print(child.own_peak_rss_kib(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", code, str(E2E)], check=True,
                          capture_output=True, text=True, timeout=60)
    own, inherited = map(int, done.stdout.split())
    assert len(ballast) >> 10 <= inherited
    assert 0 < own < 100 << 10


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig2_crn_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
