"""Declarative experiment registry.

Every runnable experiment is one row of the ``EXPERIMENTS`` table in
:mod:`repro.experiments` — name, a ``"module:qualname"`` reference to its
run function (``run=``) or, for a sweep, to its plan builder (``plan=``),
``quick`` / ``full`` parameter profiles, ``order`` and a description — and
becomes one :class:`ExperimentSpec` here when this module loads, without
importing any driver: :func:`experiment_specs`, :func:`spec_names` and
``repro run --list`` read the table alone.  A spec's driver module is
imported the first time its ``run`` is read, which :func:`get_spec` does, so
a caller that times ``spec.run(...)`` times the run and not the import.
The ``repro run`` CLI is a pure consumer of this registry.
"""

from __future__ import annotations

import functools
import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.executors import run_plan
from repro.experiments import EXPERIMENTS

PROFILES = ("quick", "full")


def _resolve(target: Callable[..., Any] | str) -> Callable[..., Any]:
    return pkgutil.resolve_name(target) if isinstance(target, str) else target


def _plan_runner(build_plan: Callable[..., Any]) -> Callable[..., Any]:
    """A plan row's ``run``: ``run_plan(build_plan(**kwargs), executor, checkpoint=)``.

    It carries ``build_plan``'s name, module and docstring, and its
    signature is ``build_plan``'s parameters plus ``executor`` and
    ``checkpoint``, so ``accepts`` and ``sys.modules[run.__module__]`` see
    the driver.
    """

    @functools.wraps(build_plan)
    def run(*args: Any, executor: Any | None = None, checkpoint: Any | None = None, **kwargs: Any) -> Any:
        return run_plan(build_plan(*args, **kwargs), executor, checkpoint=checkpoint)

    signature = inspect.signature(build_plan)
    engine = [inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY, default=None)
              for name in ("executor", "checkpoint")]
    run.__signature__ = signature.replace(  # type: ignore[attr-defined]
        parameters=[*signature.parameters.values(), *engine],
        return_annotation=inspect.Signature.empty,
    )
    return run


class _EntryPoint:
    """The ``run`` field: a callable, a ``"module:qualname"`` imported on first read,
    or — on a plan row — :func:`_plan_runner` of the plan, built on first read."""

    def __get__(self, spec: Any, owner: type | None = None) -> Callable[..., Any] | None:
        if spec is None:
            return None  # the field's default: a plan row has no run of its own
        run = spec.__dict__["run"]
        if run is None:
            run = spec.__dict__["run"] = _plan_runner(_resolve(spec.plan))
        elif isinstance(run, str):
            run = spec.__dict__["run"] = _resolve(run)
        return run

    def __set__(self, spec: Any, run: Callable[..., Any] | str | None) -> None:
        spec.__dict__["run"] = run


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: its entry point and parameter profiles.

    A spec names exactly one of ``run`` — the entry point, or a
    ``"module:qualname"`` reference to it — and ``plan``, a sweep's plan
    builder (a :class:`~repro.engine.JobPlan` factory) or a reference to
    it, whose ``spec.run`` is derived: it takes the builder's keywords
    plus ``executor=`` and ``checkpoint=``.  Either is resolved by import
    the first time ``spec.run`` is read.  ``profiles`` maps profile name
    to the kwargs passed to ``run`` (``full`` is usually empty — the
    function's own defaults are the paper-scale configuration); ``order``
    fixes the CLI's default run/listing sequence.
    """

    name: str
    run: Callable[..., Any] | str | None = _EntryPoint()
    plan: Callable[..., Any] | str | None = None
    profiles: dict[str, dict[str, Any]] = field(default_factory=dict)
    order: int = 100
    description: str = ""

    def __post_init__(self) -> None:
        if (self.__dict__["run"] is None) == (self.plan is None):
            raise ValueError(f"spec {self.name!r} needs exactly one of run= and plan=")
        for profile in PROFILES:
            if profile not in self.profiles:
                raise ValueError(f"spec {self.name!r} is missing the {profile!r} profile")

    def kwargs(self, profile: str) -> dict[str, Any]:
        """A fresh copy of one profile's kwargs."""
        if profile not in self.profiles:
            raise KeyError(f"spec {self.name!r} has no profile {profile!r}: {list(self.profiles)}")
        return dict(self.profiles[profile])

    @property
    def parallel(self) -> bool:
        """Whether the spec is a job plan: its ``run`` takes ``executor=`` and ``checkpoint=``."""
        return self.plan is not None

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
