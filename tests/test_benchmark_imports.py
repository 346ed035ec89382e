"""What the end-to-end benchmark imports from ``repro`` still exists, and its calls still bind.

``benchmarks/e2e`` imports the package inside functions (its replays run
only under ``--trace``), so a rename or a changed signature breaks it
without any tier-1 test noticing.  This reads the harness files — it never
edits or runs them — and checks every ``from repro... import`` name
resolves, and every call of such a name binds to the current signature
(e.g. the traced figure-2 replay's positional ``simulate_grid(n, fs,
iterations, rng)``).
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
FILES = sorted(HARNESS.glob("*.py"))


def _imports(tree: ast.AST) -> dict[str, tuple[str, str]]:
    """Local name -> (module, attribute) for every ``from repro... import``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def _resolve(module: str, name: str):
    package = importlib.import_module(module)
    if hasattr(package, name):
        return getattr(package, name)
    return importlib.import_module(f"{module}.{name}")  # a submodule


def test_the_harness_imports_from_the_package():
    assert FILES, f"no harness files under {HARNESS}"
    assert any(_imports(ast.parse(path.read_text())) for path in FILES)


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_every_name_the_harness_imports_resolves(path):
    missing = []
    for local, (module, name) in sorted(_imports(ast.parse(path.read_text())).items()):
        try:
            _resolve(module, name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"from {module} import {name}: {exc}")
    assert not missing, missing


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_every_call_of_an_imported_function_binds(path):
    tree = ast.parse(path.read_text())
    imported = _imports(tree)
    unbound = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in imported:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue  # *args / **kwargs: what they hold is not in the source
        target = _resolve(*imported[node.func.id])
        if not callable(target):
            continue
        keywords = {k.arg: None for k in node.keywords}
        try:
            inspect.signature(target).bind(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {node.func.id}: {exc}")
    assert not unbound, unbound
