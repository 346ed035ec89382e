"""Scenario specification: parsing and validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.baselines import ROUTING_PROTOCOLS


class ScenarioError(ValueError):
    """A scenario spec is malformed; the message says which field and why."""


VALID_PROTOCOLS = tuple(ROUTING_PROTOCOLS)
VALID_WORKLOADS = ("stream", "voicemail", "mpi", "none")


@dataclass(frozen=True)
class FaultStep:
    """One scripted fault action."""

    at: float
    action: str  # "fail" | "repair"
    component: str


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
    seed: int = 0
    fabric: str = "hub"  #: "hub" (the paper's shared medium) or "switch"

    @staticmethod
    def from_dict(raw: dict[str, Any]) -> "ScenarioSpec":
        """Validate a plain dict into a spec, with precise error messages."""
        if not isinstance(raw, dict):
            raise ScenarioError(f"scenario must be an object, got {type(raw).__name__}")

        def need(key: str, kind: type, default=None):
            if key not in raw:
                if default is not None:
                    return default
                raise ScenarioError(f"missing required field {key!r}")
            value = raw[key]
            if kind is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, kind):
                raise ScenarioError(f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
            return value

        name = need("name", str)
        nodes = need("nodes", int)
        if nodes < 2:
            raise ScenarioError(f"nodes must be >= 2, got {nodes}")
        duration = need("duration_s", float)
        if duration <= 0:
            raise ScenarioError(f"duration_s must be positive, got {duration}")

        protocol = raw.get("protocol", {"kind": "static"})
        if not isinstance(protocol, dict) or "kind" not in protocol:
            raise ScenarioError("protocol must be an object with a 'kind' field")
        protocol_kind = protocol["kind"]
        if protocol_kind not in VALID_PROTOCOLS:
            raise ScenarioError(f"protocol.kind must be one of {VALID_PROTOCOLS}, got {protocol_kind!r}")
        protocol_options = {k: v for k, v in protocol.items() if k != "kind"}

        workload = raw.get("workload", {"kind": "none"})
        if not isinstance(workload, dict) or "kind" not in workload:
            raise ScenarioError("workload must be an object with a 'kind' field")
        workload_kind = workload["kind"]
        if workload_kind not in VALID_WORKLOADS:
            raise ScenarioError(f"workload.kind must be one of {VALID_WORKLOADS}, got {workload_kind!r}")
        workload_options = {k: v for k, v in workload.items() if k != "kind"}

        steps: list[FaultStep] = []
        for index, entry in enumerate(raw.get("faults", [])):
            if not isinstance(entry, dict) or "at" not in entry:
                raise ScenarioError(f"faults[{index}] must be an object with an 'at' time")
            at = float(entry["at"])
            if at < 0 or at > duration:
                raise ScenarioError(f"faults[{index}].at={at} outside [0, duration_s]")
            actions = [key for key in ("fail", "repair") if key in entry]
            if len(actions) != 1:
                raise ScenarioError(f"faults[{index}] needs exactly one of 'fail' or 'repair'")
            action = actions[0]
            steps.append(FaultStep(at=at, action=action, component=str(entry[action])))

        loss_rate = float(raw.get("loss_rate", 0.0))
        if not 0.0 <= loss_rate < 1.0:
            raise ScenarioError(f"loss_rate must be in [0, 1), got {loss_rate}")

        fabric = raw.get("fabric", "hub")
        if fabric not in ("hub", "switch"):
            raise ScenarioError(f"fabric must be 'hub' or 'switch', got {fabric!r}")

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
            bandwidth_bps=float(raw.get("bandwidth_bps", 100e6)),
            loss_rate=loss_rate,
            seed=int(raw.get("seed", 0)),
        )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return ScenarioSpec.from_dict(raw)
