"""``repro``: the package's one command, a table of verbs.

``repro`` alone prints the banner; ``repro <verb> ARGS...`` imports the
verb's module and calls its ``main(ARGS)``.  The verbs share one error
policy: a closed stdout ends the command quietly, and a missing or
unreadable input file prints one ``repro <verb>: error: <path>: <reason>``
line and exits 1.
"""

import importlib
import os
import sys
from typing import Callable

#: verb -> (``module:function`` it calls, one help line).  A verb's module is
#: imported only when that verb is chosen, so ``repro worker`` loads no driver.
VERBS = {
    "run": ("repro.experiments.runner:main", "regenerate the paper's figures and tables"),
    "sim": ("repro.scenario.cli:main", "run declarative scenario files (JSON specs)"),
    "analyze": ("repro.analysis.cli:main", "survivability calculator: Equation 1 and extensions"),
    "worker": ("repro.engine.worker:main", "join a distributed run as one worker"),
    "obs": ("repro.obs.cli:main", "inspect, export, watch and score a run's artifacts"),
}


def resolve(verb: str) -> Callable[[list[str]], int]:
    """The function ``verb`` calls, importing its module (and no other verb's)."""
    module, _, function = VERBS[verb][0].partition(":")
    return getattr(importlib.import_module(module), function)


def _print_verbs() -> None:
    for verb, (_, help_line) in VERBS.items():
        print(f"  repro {verb:<8} {help_line}")


def _banner() -> int:
    """Print what this package is and how to drive it."""
    from repro import __version__, crossover_n, success_probability

    print(f"repro {__version__} — DRS network-survivability reproduction")
    print("(Chowdhury, Frieder, Luse, Wan — IPDPS 2000 Workshops)")
    print()
    print(f"sanity: Equation 1 P[S](18, 2) = {success_probability(18, 2):.6f} "
          f"(paper: first exceeds 0.99 at N=18; crossover_n(2) = {crossover_n(2)})")
    print()
    print("verbs (repro <verb> --help for each):")
    _print_verbs()
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md, docs/")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``argv[0]`` through :data:`VERBS`; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        return _banner()
    verb, args = argv[0], argv[1:]
    if verb in ("-h", "--help"):
        print("usage: repro [VERB [ARGS...]]")
        _print_verbs()
        return 0
    if verb not in VERBS:
        print(f"repro: error: unknown verb {verb!r} (try: {', '.join(VERBS)})", file=sys.stderr)
        return 2
    try:
        status = resolve(verb)(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader (e.g. `| head`) closed stdout: point it at devnull so the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"repro {verb}: error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
