"""``src/repro`` holds what runs: every definition, down to a class member, is reached by something that is not a test.

This reads the source (it imports only the wire protocol's frame table)
and walks a name-level call graph.  A definition is a top-level function or class (``module:name``) or a
method, property, classmethod or staticmethod of a top-level class
(``module:Class.member``).  The roots are what runs without a test:

* the module-level code of every ``src/repro`` module, except the lazy
  export tables (``_lazy_exports(...)`` and ``__all__``) and bare imports,
  so a name no code uses is not kept alive by being exported;
* string references in that code: the ``"module:qualname"`` rows of
  ``VERBS`` and ``EXPERIMENTS``, and the names a ``PlugIn`` row spells;
* every file under ``examples/`` and ``benchmarks/e2e`` (its ``tests/``
  excepted), the ``python -c`` snippets of the ``Makefile`` and the scripts
  it runs;
* the handlers :data:`DISPATCHED` names, which ``CoordinatorCore.handle``
  finds by ``getattr`` from a frame's kind.

A definition is reached when a reached body spells its name (as a name, an
attribute, an import, or an identifier-like string).  Reaching a class
reaches its class-level statements only (bases, decorators, assignments and
dunder methods), not its other members: each of those needs its own use.
Resolution is by name, so the graph over-approximates: it can miss dead code
whose name a live body happens to spell, but it never calls live code dead.
A definition reached only from ``tests/`` fails here unless
:data:`REFERENCES` names it with the reason it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.engine.coordinator import FRAMES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: definitions no run reaches that stay in ``src``: ``module:qualname`` -> why
REFERENCES = {
    # recorded in a pin: estimator_values.json replays them
    "repro.analysis.variance:stratified_success_probability": "37 strat-point pin keys record its rounding order",
    "repro.analysis.variance:sample_conditional_failure_matrix": "stratified_success_probability's per-stratum draw",
    "repro.analysis.variance:both_hubs_up_conditional_success": "stratified_success_probability's both-up stratum",
    "repro.topology.model:TerminalQuorum": "the quorum predicate of 35 topo-grid and topo-point pin keys",
    # independent references the estimators are checked against
    "repro.analysis.exhaustive:enumerate_success_probability": "brute-force truth for Equation 1 at small N",
    "repro.analysis.exhaustive:pair_connected": "brute-force pair predicate the kernels are checked by",
    "repro.analysis.exact:good_combinations": "Equation 1's numerator F(N, f), checked against enumeration",
    "repro.analysis.montecarlo:sample_failure_matrix": "reference sampler the sweep loop's draws are checked against",
    "repro.analysis.montecarlo:failure_rank_matrix": "reference ranks the sweep kernel's levels are checked against",
    "repro.analysis.montecarlo:failure_matrix_at": "reference threshold of a rank matrix",
    "repro.analysis.allpairs:allpairs_connected_vec": "reference all-pairs predicate for the level kernel",
    "repro.analysis.weighted:weighted_failure_matrix": "reference sampler for field-weighted draws",
    "repro.analysis.topokernel:topology_connected_vec": "reference predicate for the bit-packed topology kernel",
    "repro.analysis.topokernel:sample_topology_failures": "reference sampler for the topology draw",
    "repro.analysis.stats:wilson_interval": "scalar interval test_sweep_kernel.py and test_oracle.py hold grids to",
    "repro.analysis.stats:ProportionEstimate": "wilson_interval's result",
    "repro.drs.config:DrsConfig.detection_bound_s": "bound test_failover.py and test_scaling.py hold DRS timing to",
    # the DES pin harness (tests/simkit/des_digest.py) and the churn soak (tests/integration/test_soak.py)
    "repro.simkit.simulator:Simulator.enable_profiling": "des_digest.py profiles the pinned DES runs",
    "repro.simkit.trace:TraceRecorder.add_hook": "des_digest.py digests the pinned runs' trace entries through it",
    "repro.netsim.faults:FaultInjector.start_random_faults": "test_soak.py churns DRS with exponential lifetimes",
    "repro.netsim.faults:FaultInjector.stop_random_faults": "test_soak.py ends the churn before the settle window",
    "repro.netsim.faults:FaultInjector.repair_all": "test_soak.py heals the cluster before checking reachability",
    # kept for open work
    "repro.cluster.failurelog:to_fault_scenario": "turns a fleet-year into faults; a fleet replay scenario needs it",
    # helpers the tests share with the code they test
    "repro.simkit.rng:spawned_rng": "a generator over spawn_seedseq's child, as a job builds one",
    "repro.obs.profiler:profiling_installed": "tests assert install_profiling's state",
    "repro.netsim.addresses:broadcast_addr": "tests address broadcast frames",
}

#: the ``CoordinatorCore`` handlers ``handle`` reaches through ``getattr(self, f"_{kind}")``
DISPATCHED = {"_hello", "_heartbeat", "_next", "_chunk_done", "_job_error", "_goodbye"}

#: a string naming one definition: ``"module:qualname"`` or a bare (dotted) identifier
_REFERENCE = re.compile(r"(?:[\w.]+:)?[A-Za-z_][\w.]*")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` spells: names, attributes, imported names, identifier strings."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _REFERENCE.fullmatch(sub.value):
                names.update(sub.value.rpartition(":")[2].split("."))
    return names


def _is_member(stmt: ast.stmt) -> bool:
    """A method, property, classmethod or staticmethod that is not a dunder (dunders run with the class)."""
    return isinstance(stmt, _FUNCTIONS) and not (stmt.name.startswith("__") and stmt.name.endswith("__"))


def _class_level(cls: ast.ClassDef) -> set[str]:
    """What reaching ``cls`` reaches: its bases, keywords, decorators and non-member statements."""
    names: set[str] = set()
    for node in (*cls.bases, *cls.keywords, *cls.decorator_list):
        names |= _names(node)
    for stmt in cls.body:
        if not _is_member(stmt):
            names |= _names(stmt)
    return names


def _own_lines(node: ast.AST) -> int:
    """The lines of ``node`` from its first decorator to its end, less those of its members."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    lines = node.end_lineno - first + 1
    if isinstance(node, ast.ClassDef):
        lines -= sum(_own_lines(stmt) for stmt in node.body if _is_member(stmt))
    return lines


class Graph:
    """The definitions of ``src/repro``, the names the roots spell, and the import aliases."""

    def __init__(self) -> None:
        #: ``module:qualname`` -> its nodes (a property and its setter share one qualname)
        self.defs: dict[str, list[ast.AST]] = {}
        #: ``module:qualname`` -> the source file it is in
        self.paths: dict[str, Path] = {}
        self.roots: set[str] = set(DISPATCHED)
        #: local name -> the imported names it aliases
        self.aliases: dict[str, set[str]] = {}

    def add_source(self, tree: ast.Module, module: str, path: Path) -> None:
        """Record a ``src/repro`` module's definitions and what its other statements spell."""
        self._module_level(tree.body, module, path)
        self._add_aliases(tree)

    def add_root(self, tree: ast.AST) -> None:
        """Record a file that runs without a test: everything it spells is a root."""
        self.roots |= _names(tree)
        self._add_aliases(tree)

    def _add_aliases(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                self.aliases.setdefault(node.asname, set()).add(node.name.rpartition(".")[2])

    def _define(self, qualname: str, node: ast.AST, path: Path) -> None:
        self.defs.setdefault(qualname, []).append(node)
        self.paths[qualname] = path

    def _module_level(self, body: list[ast.stmt], module: str, path: Path) -> None:
        for stmt in body:
            if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                self._define(f"{module}:{stmt.name}", stmt, path)
                if isinstance(stmt, ast.ClassDef):
                    for member in filter(_is_member, stmt.body):
                        self._define(f"{module}:{stmt.name}.{member.name}", member, path)
            elif isinstance(stmt, (ast.If, ast.Try)):
                if isinstance(stmt, ast.If):
                    self.roots |= _names(stmt.test)
                for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", [])):
                    self._module_level(block, module, path)
                for handler in getattr(stmt, "handlers", []):
                    self._module_level(handler.body, module, path)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            elif _is_export_table(stmt):
                if isinstance(stmt.value, ast.Call):
                    self.roots |= _names(stmt.value.func)  # _lazy_exports runs; the names it lists are not uses
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # a docstring
            else:
                self.roots |= _names(stmt)

    def unreached(self) -> set[str]:
        """The definitions that no root reaches."""
        by_name: dict[str, list[str]] = {}
        for qualname in self.defs:
            by_name.setdefault(qualname.partition(":")[2].rpartition(".")[2], []).append(qualname)
        seen_names: set[str] = set()
        reached: set[str] = set()
        pending = list(self.roots)
        while pending:
            name = pending.pop()
            if name in seen_names:
                continue
            seen_names.add(name)
            pending.extend(self.aliases.get(name, ()))
            for qualname in by_name.get(name, ()):
                reached.add(qualname)
                for node in self.defs[qualname]:
                    pending.extend(_class_level(node) if isinstance(node, ast.ClassDef) else _names(node))
        return set(self.defs) - reached

    def row(self, qualname: str) -> str:
        """``module:Class.member (path:line, N lines)``: what a failure asks to delete."""
        nodes = self.defs[qualname]
        path = self.paths[qualname]
        where = f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}:{nodes[0].lineno}"
        return f"{qualname} ({where}, {sum(map(_own_lines, nodes))} lines)"


def _is_export_table(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) or any(
        isinstance(t, ast.Tuple) and any(isinstance(e, ast.Name) and e.id == "__all__" for e in t.elts)
        for t in targets
    )


def _makefile_roots() -> tuple[set[str], set[Path]]:
    """The identifiers the Makefile's ``python -c`` snippets spell, and the scripts it runs."""
    text = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    names = set()
    for snippet in re.findall(r'-c "(.*?)"', text):
        names |= set(re.findall(r"[A-Za-z_]\w*", snippet))
    scripts = {ROOT / path for path in re.findall(r"[\w./-]+\.py\b", text) if (ROOT / path).is_file()}
    return names, scripts


def build_graph() -> Graph:
    """The graph of the tree: ``src/repro`` as definitions; examples, the benchmark and the Makefile as roots."""
    graph = Graph()
    names, scripts = _makefile_roots()
    graph.roots |= names
    for path in sorted(SRC.glob("repro/**/*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        graph.add_source(ast.parse(path.read_text()), module, path)
    harness = [p for p in (ROOT / "benchmarks" / "e2e").rglob("*.py") if "tests" not in p.parts]
    for path in sorted({*(ROOT / "examples").rglob("*.py"), *harness, *scripts}):
        graph.add_root(ast.parse(path.read_text()))
    return graph


def unreached() -> set[str]:
    """The definitions of ``src/repro`` that nothing but a test reaches."""
    return build_graph().unreached()


def test_every_definition_is_reached_or_a_named_reference():
    graph = build_graph()
    dead = graph.unreached()
    rows = "\n".join(graph.row(q) for q in sorted(dead - set(REFERENCES)))
    assert not rows, f"reached only from tests: delete, or add to REFERENCES\n{rows}"
    assert sorted(set(REFERENCES) - dead) == [], "REFERENCES rows that are not (or no longer) unreached"


def test_dispatched_is_the_worker_sent_frames():
    # handle() calls getattr(self, f"_{kind}") for a frame a worker sends: a new kind needs a row here
    assert DISPATCHED == {f"_{kind}" for kind, row in FRAMES.items() if row.sender == "worker"}


def test_the_graph_sees_the_entry_points():
    # the walk must start from real roots, or every definition would be dead
    graph = build_graph()
    dead = graph.unreached()
    for live in ("repro.__main__:main", "repro.experiments.figure3:build_plan", "repro.drs.daemon:install_drs",
                 "repro.analysis.convergence:mean_absolute_deviation_grid", "repro.simkit.simulator:Simulator.run",
                 "repro.obs.flightrecorder:FlightRecorder.emit", "repro.engine.coordinator:policy_to_wire",
                 *(f"repro.engine.coordinator:CoordinatorCore.{name}" for name in DISPATCHED)):
        assert live in graph.defs and live not in dead, live


def test_a_method_only_a_test_calls_is_reported(tmp_path):
    # a class a run uses, with one member the run calls and one it never does
    source = (
        "class Probe:\n"
        "    limit = 3\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "    def hit(self):\n"
        "        self.hits += 1\n"
        "    def reset(self):\n"
        "        self.hits = 0\n"
        "\n"
        "def run():\n"
        "    Probe().hit()\n"
    )
    path = tmp_path / "probe.py"
    graph = Graph()
    graph.add_source(ast.parse(source), "pkg.probe", path)
    graph.add_root(ast.parse("from pkg.probe import run\nrun()\n"))
    assert graph.unreached() == {"pkg.probe:Probe.reset"}
    assert graph.row("pkg.probe:Probe.reset") == f"pkg.probe:Probe.reset ({path}:7, 2 lines)"
