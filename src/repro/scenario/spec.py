"""Scenario specification: parsing and validation."""

from __future__ import annotations

import importlib
import json
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, get_args, get_type_hints


class ScenarioError(ValueError):
    """A scenario spec is malformed; the message says which field and why."""


@dataclass(frozen=True)
class PlugIn:
    """One row of a plug-in table: the module holding a kind's config dataclass and its starter.

    The names resolve when a spec or a run first names the kind, so a DRS
    run loads no baseline and a stream no messaging layer.
    """

    module: str
    config_name: str | None  #: None: the kind takes no options
    starter_name: str

    def config(self) -> type | None:
        """The kind's config dataclass, or None."""
        return getattr(importlib.import_module(self.module), self.config_name) if self.config_name else None

    def starter(self) -> Callable[..., Any]:
        """What installs the regime or starts the workload."""
        return getattr(importlib.import_module(self.module), self.starter_name)

    def configure(self, options: dict[str, Any]) -> Any:
        """The config ``options`` state (None for a kind without one)."""
        config = self.config()
        return config(**options) if config else None


#: every routing regime, in report order: ``protocol.kind`` -> its row; each starter is
#: ``install_<regime>(cluster, stacks, config)`` and returns a ``repro.protocols.Deployment``
ROUTING_PROTOCOLS = {
    "drs": PlugIn("repro.drs", "DrsConfig", "install_drs"),
    "reactive": PlugIn("repro.baselines", "ReactiveConfig", "install_reactive"),
    "distvector": PlugIn("repro.baselines", "DistVectorConfig", "install_distvector"),
    "linkstate": PlugIn("repro.baselines", "LinkStateConfig", "install_linkstate"),
    "static": PlugIn("repro.baselines", None, "install_static_only"),
}
#: every workload: ``workload.kind`` -> its row; each starter is ``start(sim, stacks, config, rng)``
#: and returns what the report reads through ``metrics()``
WORKLOADS = {
    "stream": PlugIn("repro.scenario.workloads", "StreamConfig", "MessageStream"),
    "voicemail": PlugIn("repro.cluster.voicemail", "VoicemailConfig", "start_voicemail"),
    "mpi": PlugIn("repro.cluster.mpijob", "MpiJobConfig", "start_mpi_job"),
    "none": PlugIn("repro.scenario.workloads", None, "Idle"),
}


def _number(value: Any, where: str, ok: Callable[[Any], bool], need: str, integer: bool = False) -> Any:
    """``value`` if a finite JSON number (an integer where ``integer``) passing ``ok``, else a ScenarioError."""
    if not isinstance(value, bool) and isinstance(value, int if integer else (int, float)):
        with suppress(OverflowError):  # an integer beyond the float range
            if math.isfinite(value) and ok(value):
                return value if integer else float(value)
    raise ScenarioError(f"{where} must be {'an integer' if integer else 'a finite number'}{need}, got {value!r}")


def _typed(value: Any, where: str, kind: type) -> Any:
    if not isinstance(value, kind):
        raise ScenarioError(f"{where} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class FaultStep:
    """One scripted fault action."""

    at: float
    action: str  # "fail" | "repair"
    component: str


@dataclass(frozen=True)
class Warmup:
    """The warm-up boundary, where one fault step is applied inline (not as a queued event).

    At ``until_s``, between two ``sim.run`` calls, the run fails the named
    components, or exactly ``fail_exactly`` drawn from the run's generator.
    """

    until_s: float
    fail: tuple[str, ...] = ()
    fail_exactly: int | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario."""

    name: str
    nodes: int
    duration_s: float
    protocol_kind: str
    protocol_options: dict[str, Any] = field(default_factory=dict)
    workload_kind: str = "none"
    workload_options: dict[str, Any] = field(default_factory=dict)
    faults: tuple[FaultStep, ...] = ()
    bandwidth_bps: float = 100e6
    loss_rate: float = 0.0
    seed: Any = 0  #: anything ``np.random.default_rng`` takes; a Generator is drawn from in place
    fabric: str = "hub"  #: "hub" (the paper's shared medium) or "switch"
    warmup: Warmup | None = None
    window_s: tuple[float, float] | None = None  #: (start, end) of the report's ``window_bits``
    ping: bool = False  #: after ``duration_s``, ping node 0 -> 1 along the routing table
    trace: bool = True  #: off: cheaper replicates, and no repair or detection records

    @staticmethod
    def from_dict(raw: dict[str, Any]) -> "ScenarioSpec":
        """Validate a plain dict into a spec, with precise error messages."""
        if not isinstance(raw, dict):
            raise ScenarioError(f"scenario must be an object, got {type(raw).__name__}")
        for key in ("name", "nodes", "duration_s"):
            if key not in raw:
                raise ScenarioError(f"missing required field {key!r}")

        name = _typed(raw["name"], "name", str)
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ScenarioError(f"name must be a file name (no path separator, not '.' or '..'), got {name!r}")
        nodes = _number(raw["nodes"], "nodes", lambda v: v >= 2, " >= 2", integer=True)
        duration = _number(raw["duration_s"], "duration_s", lambda v: v > 0, " > 0")

        protocol_kind, protocol_options, _ = _plug_in(raw, "protocol", ROUTING_PROTOCOLS, "static")
        workload_kind, workload_options, workload = _plug_in(raw, "workload", WORKLOADS, "none")
        if workload_kind == "stream" and (max(workload.src, workload.dst) >= nodes or workload.src == workload.dst):
            raise ScenarioError(f"stream src/dst out of range: {workload.src}->{workload.dst}")
        if workload_kind == "mpi" and nodes < 3:
            raise ScenarioError(f"the mpi ring job needs nodes >= 3, got {nodes}")

        steps: list[FaultStep] = []
        for index, entry in enumerate(raw.get("faults", [])):
            if not isinstance(entry, dict) or "at" not in entry:
                raise ScenarioError(f"faults[{index}] must be an object with an 'at' time")
            at = _number(entry["at"], f"faults[{index}].at", lambda v: 0 <= v <= duration, " in [0, duration_s]")
            actions = [key for key in ("fail", "repair") if key in entry]
            if len(actions) != 1:
                raise ScenarioError(f"faults[{index}] needs exactly one of 'fail' or 'repair'")
            action = actions[0]
            steps.append(FaultStep(at=at, action=action, component=str(entry[action])))

        fabric = raw.get("fabric", "hub")
        if fabric not in ("hub", "switch"):
            raise ScenarioError(f"fabric must be 'hub' or 'switch', got {fabric!r}")

        window = raw.get("window_s")
        if window is not None:
            if not isinstance(window, list) or len(window) != 2:
                raise ScenarioError(f"window_s must be a [start, end] pair, got {window!r}")
            start = _number(window[0], "window_s[0]", lambda v: v >= 0, " >= 0")
            end = _number(window[1], "window_s[1]", lambda v: start < v <= duration, " in (start, duration_s]")
            window = (start, end)

        return ScenarioSpec(
            fabric=fabric,
            name=name,
            nodes=nodes,
            duration_s=duration,
            protocol_kind=protocol_kind,
            protocol_options=protocol_options,
            workload_kind=workload_kind,
            workload_options=workload_options,
            faults=tuple(sorted(steps, key=lambda s: s.at)),
            bandwidth_bps=_number(raw.get("bandwidth_bps", 100e6), "bandwidth_bps", lambda v: v > 0, " > 0"),
            loss_rate=_number(raw.get("loss_rate", 0.0), "loss_rate", lambda v: 0 <= v < 1, " in [0, 1)"),
            seed=_number(raw.get("seed", 0), "seed", lambda v: v >= 0, " >= 0", integer=True),
            warmup=_warmup(raw["warmup"], nodes, duration) if "warmup" in raw else None,
            window_s=window,
            ping=_typed(raw.get("ping", False), "ping", bool),
            trace=_typed(raw.get("trace", True), "trace", bool),
        )


def _plug_in(raw: dict[str, Any], axis: str, table: dict[str, PlugIn], default: str) -> tuple[str, dict, Any]:
    """The ``axis`` object's kind, its options as given, and the config they build.

    Every option is checked against its config field's annotation before the
    config is built, so the config's own range checks see only well-typed values.
    """
    value = raw.get(axis, {"kind": default})
    if not isinstance(value, dict) or "kind" not in value:
        raise ScenarioError(f"{axis} must be an object with a 'kind' field")
    kind = value["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ScenarioError(f"{axis}.kind must be one of {tuple(table)}, got {kind!r}")
    options = {k: v for k, v in value.items() if k != "kind"}
    config = table[kind].config()
    if config is None:
        if options:
            raise ScenarioError(f"{kind} {axis} takes no options, got {sorted(options)}")
        return kind, options, None
    hints = get_type_hints(config)
    unknown = sorted(set(options) - {f.name for f in fields(config)})
    if unknown:
        raise ScenarioError(f"bad {axis} options: unknown {kind} options {unknown}")
    for key, option in options.items():
        _option(option, f"{axis}.{key}", hints[key])
    try:
        return kind, options, config(**options)
    except ValueError as exc:  # each config's message starts with the field it names
        raise ScenarioError(f"bad {axis} options for {kind}: {axis}.{exc}") from exc


def _option(value: Any, where: str, annotation: Any) -> None:
    """Check ``value`` against a config field's annotation: ``float`` a finite number,
    ``int`` an integer (not a bool), ``bool`` a bool, and ``X | None`` also None."""
    expected, *rest = get_args(annotation) or (annotation,)
    if value is None and type(None) in rest:
        return
    if expected in (int, float):
        _number(value, where, lambda v: True, "", integer=expected is int)
    else:
        _typed(value, where, expected)


def _warmup(raw: Any, nodes: int, duration: float) -> Warmup:
    if not isinstance(raw, dict) or "until_s" not in raw or set(raw) - {"until_s", "fail", "fail_exactly"}:
        raise ScenarioError(f"warmup must be an object of 'until_s' and 'fail' or 'fail_exactly', got {raw!r}")
    until = _number(raw["until_s"], "warmup.until_s", lambda v: 0 < v < duration, " in (0, duration_s)")
    fail = raw.get("fail", [])
    if not isinstance(fail, list) or not all(isinstance(name, str) for name in fail):
        raise ScenarioError(f"warmup.fail must be a list of component names, got {fail!r}")
    exactly = raw.get("fail_exactly")
    if exactly is not None:
        if fail:
            raise ScenarioError("warmup takes 'fail' or 'fail_exactly', not both")
        components = 2 * nodes + 2
        _number(exactly, "warmup.fail_exactly", lambda v: 0 <= v <= components, f" in [0, {components}]", integer=True)
    return Warmup(until, tuple(fail), exactly)


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return ScenarioSpec.from_dict(raw)
