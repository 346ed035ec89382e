"""Package-level smoke tests: public API surface and the module banner."""

import subprocess
import sys


def test_top_level_exports_importable():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_obs_surface_resolves_and_measures_no_timings():
    import repro.obs

    for name in repro.obs.__all__:
        assert hasattr(repro.obs, name), name
    # benchmarks/e2e is the one benchmark: no snapshot writer, differ or module here
    assert not [n for n in dir(repro.obs) if "bench" in n.lower() or n == "diff_snapshots"]


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_module_banner_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "DRS network-survivability reproduction" in proc.stdout
    assert "0.990043" in proc.stdout


def test_all_subpackages_importable():
    import importlib

    for name in (
        "repro.simkit",
        "repro.netsim",
        "repro.protocols",
        "repro.drs",
        "repro.baselines",
        "repro.analysis",
        "repro.cluster",
        "repro.experiments",
        "repro.scenario",
        "repro.viz",
    ):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"


def test_public_functions_have_docstrings():
    """Every public callable reachable from the subpackage namespaces is documented."""
    import importlib
    import inspect

    missing = []
    for name in (
        "repro.simkit",
        "repro.netsim",
        "repro.protocols",
        "repro.drs",
        "repro.baselines",
        "repro.analysis",
        "repro.cluster",
        "repro.viz",
    ):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not inspect.getdoc(obj):
                    missing.append(f"{name}.{symbol}")
    assert not missing, f"undocumented public symbols: {missing}"
