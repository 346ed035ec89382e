"""The declarative experiment registry."""

import inspect
import sys

import pytest

from repro.engine import ExperimentSpec, experiment_specs, get_spec, spec_names
from repro.engine.spec import PROFILES
from repro.experiments import EXPERIMENTS


def test_every_experiment_module_registers_a_spec():
    assert spec_names() == [
        "figure1",
        "figure2",
        "figure3",
        "crossovers",
        "motivation",
        "failover",
        "desval",
        "ablations",
        "grayfailure",
        "wholecluster",
        "availability",
        "scenarios",
        "desval-curve",
        "scaling",
        "topologysweep",
    ]


def test_the_registry_is_the_table():
    # one spec per EXPERIMENTS row, with nothing else beside it
    assert sorted(spec_names()) == sorted(row["name"] for row in EXPERIMENTS)
    for row in EXPERIMENTS:
        spec = get_spec(row["name"])
        module, _, qualname = (row.get("run") or row["plan"]).partition(":")
        assert (spec.run.__module__, spec.run.__qualname__) == (module, qualname)
        assert module in sys.modules  # get_spec imported the driver


def test_a_reference_resolves_on_first_read():
    spec = ExperimentSpec(name="ref", run="repro.experiments.figure2:build_plan",
                          profiles={"quick": {}, "full": {}})
    assert spec.__dict__["run"] == "repro.experiments.figure2:build_plan"
    assert spec.run is sys.modules["repro.experiments.figure2"].build_plan
    assert spec.__dict__["run"] is spec.run  # resolved once
    assert spec.accepts("mc_iterations")


def test_a_plan_row_runs_its_plan_builder(monkeypatch):
    from repro.engine import spec as spec_module
    from repro.experiments import figure2

    spec = ExperimentSpec(name="ref", plan="repro.experiments.figure2:build_plan",
                          profiles={"quick": {}, "full": {}})
    assert spec.parallel and spec.__dict__["run"] is None
    assert (spec.run.__module__, spec.run.__name__) == ("repro.experiments.figure2", "build_plan")
    params = inspect.signature(spec.run).parameters
    assert list(params) == [*inspect.signature(figure2.build_plan).parameters, "executor", "checkpoint"]
    calls = []
    monkeypatch.setattr(spec_module, "run_plan", lambda *a, **k: calls.append((a, k)) or "result")
    assert spec.run(n_max=5, executor="pool", checkpoint="ckpt") == "result"
    (plan, executor), keywords = calls[0]
    assert (plan.experiment, executor, keywords) == ("figure2", "pool", {"checkpoint": "ckpt"})
    assert plan.seed == 2000


def test_a_spec_names_exactly_one_of_run_and_plan():
    profiles = {"quick": {}, "full": {}}
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentSpec(name="both", run=lambda: None, plan=lambda: None, profiles=profiles)
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentSpec(name="neither", profiles=profiles)
    assert not ExperimentSpec(name="direct", run=lambda: None, profiles=profiles).parallel
    with pytest.raises(TypeError):  # parallel is derived, not a field a row sets
        ExperimentSpec(name="flag", run=lambda: None, profiles=profiles, parallel=True)


def test_specs_have_both_profiles_and_callables():
    for spec in experiment_specs():
        assert callable(spec.run), spec.name
        assert set(spec.profiles) == set(PROFILES), spec.name


def test_quick_profiles_are_strict_reductions():
    # quick kwargs must be accepted by run(); smoke-call signature binding
    for spec in experiment_specs():
        sig = inspect.signature(spec.run)
        for profile in PROFILES:
            sig.bind_partial(**spec.kwargs(profile))


def test_kwargs_returns_a_copy():
    spec = get_spec("figure2")
    first = spec.kwargs("quick")
    first["mc_iterations"] = -1
    assert spec.kwargs("quick") != first


def test_sweep_specs_are_parallel_and_seeded():
    for name in ("figure2", "figure3", "desval", "availability", "wholecluster", "ablations",
                 "topologysweep"):
        spec = get_spec(name)
        assert spec.parallel, name
        assert spec.accepts_seed, name
    # DES-deterministic sweep: parallel but with no seed knob
    assert get_spec("scaling").parallel
    assert not get_spec("scaling").accepts_seed


def test_get_spec_unknown_name_raises():
    with pytest.raises(KeyError):
        get_spec("nonesuch")


def test_spec_requires_both_profiles():
    with pytest.raises(ValueError):
        ExperimentSpec(name="bad", run=lambda: None, profiles={"quick": {}})


def test_unknown_profile_rejected():
    with pytest.raises(KeyError):
        get_spec("figure2").kwargs("medium")
