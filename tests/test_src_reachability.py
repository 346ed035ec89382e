"""``src/repro`` holds what runs: every top-level definition is reached by something that is not a test.

This reads the source (it imports nothing) and walks a name-level call
graph.  The roots are what runs without a test:

* the module-level code of every ``src/repro`` module, except the lazy
  export tables (``_lazy_exports(...)`` and ``__all__``) and bare imports,
  so a name no code uses is not kept alive by being exported;
* string references in that code: the ``"module:qualname"`` rows of
  ``VERBS`` and ``EXPERIMENTS``, and the names a ``PlugIn`` row spells;
* every file under ``examples/`` and ``benchmarks/e2e`` (its ``tests/``
  excepted), the ``python -c`` snippets of the ``Makefile`` and the scripts
  it runs.

A definition is reached when a reached body names it (as a name, an
attribute, an import, or an identifier-like string).  Resolution is by name,
so the graph over-approximates: it can miss dead code whose name a live body
happens to spell, but it never calls live code dead.  A definition reached
only from ``tests/`` fails here unless :data:`REFERENCES` names it with the
reason it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: definitions no run reaches that stay in ``src``: ``module:name`` -> why
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
    # kept for open work
    "repro.cluster.failurelog:to_fault_scenario": "turns a fleet-year into faults; a fleet replay scenario needs it",
    # helpers the tests share with the code they test
    "repro.simkit.rng:spawned_rng": "a generator over spawn_seedseq's child, as a job builds one",
    "repro.obs.profiler:profiling_installed": "tests assert install_profiling's state",
    "repro.netsim.addresses:broadcast_addr": "tests address broadcast frames",
}

#: a string naming one definition: ``"module:qualname"`` or a bare (dotted) identifier
_REFERENCE = re.compile(r"(?:[\w.]+:)?[A-Za-z_][\w.]*")


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


def _is_export_table(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) or any(
        isinstance(t, ast.Tuple) and any(isinstance(e, ast.Name) and e.id == "__all__" for e in t.elts)
        for t in targets
    )


def _module_level(body: list[ast.stmt], module: str, defs: dict[str, ast.AST], roots: set[str]) -> None:
    """Record ``body``'s definitions in ``defs`` and what its other statements name in ``roots``."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[f"{module}:{stmt.name}"] = stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            if isinstance(stmt, ast.If):
                roots |= _names(stmt.test)
            for block in (stmt.body, stmt.orelse, getattr(stmt, "finalbody", [])):
                _module_level(block, module, defs, roots)
            for handler in getattr(stmt, "handlers", []):
                _module_level(handler.body, module, defs, roots)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        elif _is_export_table(stmt):
            if isinstance(stmt.value, ast.Call):
                roots |= _names(stmt.value.func)  # _lazy_exports runs; the names it lists are not uses
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # a docstring
        else:
            roots |= _names(stmt)


def _makefile_roots() -> tuple[set[str], set[Path]]:
    """The identifiers the Makefile's ``python -c`` snippets spell, and the scripts it runs."""
    text = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    names = set()
    for snippet in re.findall(r'-c "(.*?)"', text):
        names |= set(re.findall(r"[A-Za-z_]\w*", snippet))
    scripts = {ROOT / path for path in re.findall(r"[\w./-]+\.py\b", text) if (ROOT / path).is_file()}
    return names, scripts


def _graph() -> tuple[dict[str, ast.AST], set[str], dict[str, set[str]]]:
    """Every top-level definition, the root names, and the import aliases (local -> original)."""
    defs: dict[str, ast.AST] = {}
    roots, scripts = _makefile_roots()
    aliases: dict[str, set[str]] = {}
    trees = []
    for path in sorted(SRC.glob("repro/**/*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        tree = ast.parse(path.read_text())
        _module_level(tree.body, module, defs, roots)
        trees.append(tree)
    harness = [p for p in (ROOT / "benchmarks" / "e2e").rglob("*.py") if "tests" not in p.parts]
    for path in sorted({*(ROOT / "examples").rglob("*.py"), *harness, *scripts}):
        tree = ast.parse(path.read_text())
        roots |= _names(tree)
        trees.append(tree)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                aliases.setdefault(node.asname, set()).add(node.name.rpartition(".")[2])
    return defs, roots, aliases


def unreached() -> set[str]:
    """The top-level definitions of ``src/repro`` that nothing but a test reaches."""
    defs, roots, aliases = _graph()
    by_name: dict[str, list[str]] = {}
    for qualname in defs:
        by_name.setdefault(qualname.partition(":")[2], []).append(qualname)
    seen_names: set[str] = set()
    reached: set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name in seen_names:
            continue
        seen_names.add(name)
        pending.extend(aliases.get(name, ()))
        for qualname in by_name.get(name, ()):
            reached.add(qualname)
            pending.extend(_names(defs[qualname]))
    return set(defs) - reached


def test_every_definition_is_reached_or_a_named_reference():
    dead = unreached()
    assert sorted(dead - set(REFERENCES)) == [], "reached only from tests: delete, or add to REFERENCES"
    assert sorted(set(REFERENCES) - dead) == [], "REFERENCES rows that are not (or no longer) unreached"


def test_the_graph_sees_the_entry_points():
    # the walk must start from real roots, or every definition would be dead
    dead = unreached()
    for live in ("repro.__main__:main", "repro.experiments.figure3:run", "repro.drs.daemon:install_drs",
                 "repro.analysis.convergence:mean_absolute_deviation_grid"):
        assert live not in dead
