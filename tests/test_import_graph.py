"""The import graph: a run imports only what it runs.

Every case runs in a fresh interpreter (this one already holds every module
the suite touched) and asserts which ``repro.*`` modules it loaded.  The
experiment registry is one table in :mod:`repro.experiments` whose rows name
their driver modules, and every package ``__init__`` re-exports lazily, so
``repro worker`` loads the engine, ``--list`` loads no driver, and a run loads
its one driver before the timed region starts, not inside it.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import VERBS
from repro.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")

#: the fourteen driver modules, as the table names them
DRIVERS = sorted({row["run"].partition(":")[0] for row in EXPERIMENTS})
#: the protocol simulator above the event kernel (simkit itself is shared)
DES_TOWER = ("netsim", "protocols", "drs", "baselines", "cluster", "scenario")

#: ``repro run --list``, byte for byte as the per-module registrations printed it
LISTING = """\
figure1        Fig. 1 response time vs N per probe-bandwidth budget
figure2        Fig. 2 P[Success] vs N, f=2..10, with MC overlay
figure3        Fig. 3 MC convergence (MAD vs iterations)
crossovers     prose 0.99 crossovers (18/32/45), with MC validation
motivation     prose 13% network-failure share
failover       proactive vs reactive outage (DES)
desval         DES survivability vs Equation 1
ablations      two-hop / dual-backplane / sweep-period ablations
grayfailure    false positives under random frame loss
wholecluster   pairwise vs all-pairs survivability
availability   downtime minutes/year planning + field-weighted correction
scenarios      every shipped drs-sim scenario, end to end
desval-curve   live-protocol Figure 2 slice at fixed f
scaling        deployed-range size sweep + feasibility boundary
topologysweep  P[Success] grids over the pluggable topology catalog
"""

#: smoke-size kwargs of the four experiment families
SMOKE = {
    "figure2": {"mc_iterations": 200, "n_max": 12},
    "figure3": {"iteration_grid": (10, 100), "n_max": 12},
    "topologysweep": {"sizes": (4,), "f_values": (1, 2), "mc_iterations": 200},
    "desval": {"replicates": 1, "f_values": (2,)},
}

REPORT = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"


def fresh(script: str, *args: str) -> list[str]:
    """Run ``script`` in a new interpreter; its stdout's last line, parsed."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(statements: str) -> set[str]:
    """The ``repro.*`` modules a fresh interpreter holds after ``statements``."""
    return set(fresh(statements + REPORT))


def under(modules: set[str], *packages: str) -> set[str]:
    """The modules of ``modules`` inside any of ``repro.<package>``."""
    return {m for m in modules for p in packages if m == f"repro.{p}" or m.startswith(f"repro.{p}.")}


def test_worker_loads_the_engine_and_not_the_tower():
    modules = loaded("import repro.engine.worker")
    assert not under(modules, *DES_TOWER, "topology", "viz", "obs.watch", "obs.spans", "obs.postmortem")
    assert not modules & set(DRIVERS)
    assert "repro.engine.distributed" in modules


def test_help_loads_no_verb_module():
    modules = loaded(
        "import contextlib, io\n"
        "from repro.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['--help']) == 0\n"
    )
    assert not modules & {target.partition(":")[0] for target, _ in VERBS.values()}
    assert not under(modules, "analysis", "engine", "experiments", "obs", "scenario")


def test_the_worker_verb_loads_the_engine_and_not_the_tower():
    modules = loaded("from repro.__main__ import resolve\nresolve('worker')")
    assert not under(modules, *DES_TOWER, "topology", "viz", "obs.watch", "obs.spans", "obs.postmortem")
    assert not modules & set(DRIVERS)
    assert "repro.engine.worker" in modules


def test_list_loads_no_driver_and_prints_the_same_bytes():
    out = fresh(
        "import contextlib, io, json, sys\n"
        "from repro.experiments.runner import main\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    main(['--list'])\n"
        "print(json.dumps([buf.getvalue(), sorted(m for m in sys.modules if m.startswith('repro'))]))\n"
    )
    listing, modules = out
    assert listing == LISTING
    assert len(DRIVERS) == 14
    assert not set(modules) & set(DRIVERS)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_get_spec_loads_exactly_its_driver(name):
    modules = loaded(f"from repro.engine import get_spec\nget_spec({name!r})")
    driver = next(row["run"] for row in EXPERIMENTS if row["name"] == name).partition(":")[0]
    assert modules & set(DRIVERS) == {driver}
    if name == "figure2":
        assert not under(modules, *DES_TOWER)
    if name == "desval":
        assert "repro.analysis.topokernel" not in modules
        # the scenario recipe resolves baselines and workloads when a spec names one
        assert not under(modules, "cluster", "baselines")


RUN_SCRIPT = """
import json, sys
from pathlib import Path
from repro.engine import Checkpoint, get_spec, make_executor
from repro.obs import MetricsRegistry, RunManifest, ensure_core_metrics, install_profiling, use_registry
from repro.obs import write_metrics_files
from repro.obs.flightrecorder import FlightRecorder, set_flight_recorder

name, kwargs, out = sys.argv[1], json.loads(sys.argv[2]), Path(sys.argv[3])
spec = get_spec(name)
executor = make_executor(1)
install_profiling()
checkpoint = Checkpoint(out / "run.checkpoint.jsonl")
recorder = FlightRecorder(out / "run.flight.jsonl", experiment=name)
set_flight_recorder(recorder)
metrics = ensure_core_metrics(MetricsRegistry())
before = {m for m in sys.modules if m.startswith("repro")}
with use_registry(metrics):
    result = spec.run(**kwargs, seed=7, executor=executor, checkpoint=checkpoint)
set_flight_recorder(None)
recorder.close()
result.write(out)
RunManifest.build(name=name, kind="experiment", seed=7, config=result.meta, wall_seconds=0.0,
                  event_count=0).write(out / "run.manifest.json")
write_metrics_files(metrics, out, name)
print(json.dumps(sorted({m for m in sys.modules if m.startswith("repro")} - before)))
"""


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_running_a_plan_imports_nothing_more(name, tmp_path):
    # an import inside the run would land in its wall time, or in every forked pool worker
    assert fresh(RUN_SCRIPT, name, json.dumps(SMOKE[name]), str(tmp_path)) == []


@pytest.mark.parametrize("name", ["figure2", "figure3", "topologysweep"])
def test_an_estimator_run_loads_nothing_of_the_live_protocol(name, tmp_path):
    # the benchmark's fig2/fig3/topologysweep children: a frame-path edit
    # cannot move their heap layout (and so their page-fault counts)
    modules = set(fresh(RUN_SCRIPT + REPORT, name, json.dumps(SMOKE[name]), str(tmp_path)))
    assert "repro.engine" in modules
    assert not under(modules, "netsim", "protocols", "drs", "scenario")


#: how many names ``docs/api.md`` lists that its packages export (or hold as
#: submodules), counted when the re-exports became lazy: a name that leaves
#: an ``__all__`` lowers it
DOCUMENTED_NAMES = 175


def _documented() -> dict[str, list[str]]:
    """Per package, the backticked identifiers under its ``docs/api.md`` heading that it
    exports or holds as a submodule (the rest are methods, fields and parameters)."""
    documented: dict[str, list[str]] = {}
    text = (ROOT / "docs" / "api.md").read_text()
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        heading, _, body = section.partition("\n")
        tokens = set(re.findall(r"`([A-Za-z_]\w*)[`(.\[]", body))
        for package in re.findall(r"repro(?:\.\w+)?", heading):
            home = SRC.joinpath(*package.split("."))
            submodules = {p.stem for p in home.glob("*.py")} | {
                p.name for p in home.iterdir() if (p / "__init__.py").exists()
            }
            exported = set(importlib.import_module(package).__all__)
            documented[package] = sorted(tokens & (exported | submodules))
    return documented


def test_every_public_name_resolves_and_is_listed():
    documented = _documented()
    assert sum(map(len, documented.values())) == DOCUMENTED_NAMES
    packages = sorted({*documented, *(f"repro.{p.parent.name}" for p in SRC.glob("repro/*/__init__.py"))})
    script = (
        "import importlib, json, sys\n"
        "documented, packages = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "problems = []\n"
        "for package in packages:\n"
        "    module = importlib.import_module(package)\n"
        "    for name in [*module.__all__, *documented.get(package, [])]:\n"
        "        if not hasattr(module, name) or name not in dir(module):\n"
        "            problems.append(f'{package}.{name}')\n"
        "print(json.dumps(problems))\n"
    )
    assert fresh(script, json.dumps(documented), json.dumps(packages)) == []


CYCLE_SCRIPT = """
import json, os, sys, traceback
import numpy  # every child would import it; loading it once leaves each child only repro
assert not [m for m in sys.modules if m.split(".")[0] == "repro"]
failed = []
for name in json.loads(sys.argv[1]):
    pid = os.fork()
    if pid == 0:
        try:
            __import__(name)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    if os.waitpid(pid, 0)[1]:
        failed.append(name)
print(json.dumps(failed))
"""


def test_every_module_imports_first_and_alone():
    # a cycle only an eager __init__ hid fails here, by module name
    names = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in SRC.glob("repro/**/*.py")
    )
    assert len(names) > 100
    assert fresh(CYCLE_SCRIPT, json.dumps(names)) == []
