"""Declarative experiment registry.

Every runnable experiment is one row of the ``EXPERIMENTS`` table in
:mod:`repro.experiments` — name, a ``"module:qualname"`` reference to its
run function, ``quick`` / ``full`` parameter profiles, ``parallel``,
``order`` and a description — and becomes one :class:`ExperimentSpec` here
when this module loads, without importing any driver: :func:`experiment_specs`,
:func:`spec_names` and ``repro run --list`` read the table alone.  A
spec's driver module is imported the first time its ``run`` is read, which
:func:`get_spec` does, so a caller that times ``spec.run(...)`` times the run
and not the import.  The ``repro run`` CLI is a pure consumer of this
registry.
"""

from __future__ import annotations

import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments import EXPERIMENTS

PROFILES = ("quick", "full")


class _EntryPoint:
    """The ``run`` field: a callable, or a ``"module:qualname"`` imported on first read."""

    def __get__(self, spec: Any, owner: type | None = None) -> Callable[..., Any]:
        if spec is None:
            raise AttributeError("run")  # no class-level default: the field is required
        run = spec.__dict__["run"]
        if isinstance(run, str):
            run = spec.__dict__["run"] = pkgutil.resolve_name(run)
        return run

    def __set__(self, spec: Any, run: Callable[..., Any] | str) -> None:
        spec.__dict__["run"] = run


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: its entry point and parameter profiles.

    ``run`` is the entry point or a ``"module:qualname"`` reference to it,
    resolved by import the first time ``spec.run`` is read.  ``profiles``
    maps profile name to the kwargs passed to ``run`` (``full`` is usually
    empty — the function's own defaults are the paper-scale configuration).
    ``parallel`` marks runs that accept an ``executor=`` keyword (sweep
    experiments decomposed into a job plan); ``order`` fixes the CLI's
    default run/listing sequence.
    """

    name: str
    run: Callable[..., Any] | str = _EntryPoint()
    profiles: dict[str, dict[str, Any]] = field(default_factory=dict)
    parallel: bool = False
    order: int = 100
    description: str = ""

    def __post_init__(self) -> None:
        for profile in PROFILES:
            if profile not in self.profiles:
                raise ValueError(f"spec {self.name!r} is missing the {profile!r} profile")

    def kwargs(self, profile: str) -> dict[str, Any]:
        """A fresh copy of one profile's kwargs."""
        if profile not in self.profiles:
            raise KeyError(f"spec {self.name!r} has no profile {profile!r}: {list(self.profiles)}")
        return dict(self.profiles[profile])

    def accepts(self, keyword: str) -> bool:
        """Whether ``run`` takes ``keyword`` (CLI flags probe before passing)."""
        try:
            return keyword in inspect.signature(self.run).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            return False

    @property
    def accepts_seed(self) -> bool:
        """Whether ``run`` takes a ``seed`` keyword (CLI ``--seed`` override)."""
        return self.accepts("seed")


_REGISTRY: dict[str, ExperimentSpec] = {row["name"]: ExperimentSpec(**row) for row in EXPERIMENTS}


def get_spec(name: str) -> ExperimentSpec:
    """Look one spec up, its driver imported; raises ``KeyError`` with the known names."""
    try:
        spec = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; have {', '.join(spec_names())}") from None
    spec.run  # the driver's import lands here, not inside a timed spec.run(...)
    return spec


def experiment_specs() -> list[ExperimentSpec]:
    """Every registered spec, in (order, name) sequence."""
    return sorted(_REGISTRY.values(), key=lambda spec: (spec.order, spec.name))


def spec_names() -> list[str]:
    """Registered experiment names, in listing order."""
    return [spec.name for spec in experiment_specs()]
