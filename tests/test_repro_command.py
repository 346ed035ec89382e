"""The one ``repro`` command: its verb table, its console script, its error policy.

The error-policy cases run ``python -m repro`` in a subprocess, because what
they pin is what a shell sees: the exit status and every byte on stderr.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import VERBS, resolve

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
GOLDEN = str(ROOT / "tests" / "obs" / "data" / "golden.flight.jsonl")


def repro(*args: str, cwd: Path = ROOT, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=ENV, cwd=cwd, text=True, timeout=120, **kwargs,
    )


def test_one_console_script_and_every_verb_resolves():
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.partition("[project.scripts]\n")[2].partition("\n\n")[0]
    assert scripts.splitlines() == ['repro = "repro.__main__:main"']
    assert list(VERBS) == ["run", "sim", "analyze", "worker", "obs"]
    for verb in VERBS:
        assert callable(resolve(verb)), verb


def verbs_table() -> str:
    """``VERBS`` as the Markdown table ``README.md`` shows."""
    rows = ["| verb | what it does | calls |", "| --- | --- | --- |"]
    rows += [f"| `repro {verb}` | {help_line} | `{target}` |"
             for verb, (target, help_line) in VERBS.items()]
    return "\n".join(rows)


def test_the_readme_shows_the_verb_table():
    assert verbs_table() in (ROOT / "README.md").read_text()


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_verb(flag):
    proc = repro(flag, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    for verb, (_, help_line) in VERBS.items():
        assert re.search(rf"^  repro {verb} +{re.escape(help_line)}$", proc.stdout, re.M), verb


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sim", "missing.json"], "No such file or directory"),
        (["sim", "bad.json"], "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (["obs", "export-trace", "missing.trace.jsonl"], "No such file or directory"),
        (["obs", "postmortem", "missing.json"], "No such file or directory"),
        (["obs", "precision", "missing.flight.jsonl"], "No such file or directory"),
        (["obs", "watch", "--once", "missing.flight.jsonl"], "No such file or directory"),
    ],
    ids=["sim", "sim-bad-json", "export-trace", "postmortem", "precision", "watch-once"],
)
def test_a_missing_or_unreadable_input_is_one_line_and_status_1(argv, reason, tmp_path):
    (tmp_path / "bad.json").write_text("not json\n")
    proc = repro(*argv, cwd=tmp_path, capture_output=True)
    assert (proc.returncode, proc.stderr) == (1, f"repro {argv[0]}: error: {argv[-1]}: {reason}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--list"],
        ["analyze", "report", "20"],
        ["obs", "precision", GOLDEN],
        ["obs", "watch", "--once", "--json", GOLDEN],
    ],
    ids=["run-list", "analyze-report", "obs-precision", "obs-watch"],
)
def test_a_closed_stdout_ends_the_command_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = repro(*argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
