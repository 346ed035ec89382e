"""Structured run artifacts: manifests, metrics snapshots, trace dumps.

Every experiment and scenario run writes, next to its results:

* ``<name>.manifest.json`` — :class:`RunManifest`: seed, config, spec hash,
  wall time, event count, package version — the provenance needed to diff
  two ``results/`` directories and know whether they are comparable.
* ``<name>.metrics.jsonl`` / ``<name>.metrics.prom`` — the registry
  snapshot in JSONL and Prometheus text form.
* ``<name>.trace.jsonl`` (scenarios) — the event trace, one entry per line.

``repro obs`` pretty-prints all of them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.simkit.trace import TraceRecorder

MANIFEST_SCHEMA_VERSION = 1


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a same-directory temp file + ``os.replace``.

    Readers (and crash recovery) therefore only ever see the old complete
    content or the new complete content, never a torn write.  Used for the
    engine's checkpoint stream and for manifests.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def spec_hash(config: Any) -> str:
    """Stable short hash of a JSON-serializable config/spec structure."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """Provenance record for one run (experiment or scenario)."""

    name: str
    kind: str  # "experiment" | "scenario"
    seed: int | None
    config: dict[str, Any]
    config_hash: str
    wall_seconds: float
    event_count: int
    package_version: str
    schema_version: int = MANIFEST_SCHEMA_VERSION
    created_unix: float = 0.0
    python: str = field(default_factory=platform.python_version)
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        name: str,
        kind: str,
        seed: int | None,
        config: dict[str, Any],
        wall_seconds: float,
        event_count: int,
        **extra: Any,
    ) -> "RunManifest":
        """Assemble a manifest, hashing the config and stamping versions."""
        from repro import __version__

        return cls(
            name=name,
            kind=kind,
            seed=seed,
            config=config,
            config_hash=spec_hash(config),
            wall_seconds=wall_seconds,
            event_count=event_count,
            package_version=__version__,
            created_unix=time.time(),
            extra=dict(extra),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what gets serialized)."""
        return asdict(self)

    def write(self, path: str | Path) -> Path:
        """Write the manifest as pretty-printed JSON (atomically)."""
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True, default=str) + "\n"
        )


def load_manifest(path: str | Path) -> RunManifest:
    """Read a manifest back; unknown extra keys are preserved in ``extra``."""
    raw = json.loads(Path(path).read_text())
    known = {f for f in RunManifest.__dataclass_fields__}
    kwargs = {k: v for k, v in raw.items() if k in known}
    kwargs.setdefault("extra", {})
    kwargs["extra"].update({k: v for k, v in raw.items() if k not in known})
    return RunManifest(**kwargs)


def write_metrics_files(registry: MetricsRegistry, out_dir: str | Path, name: str) -> list[Path]:
    """Write both metrics snapshot forms for one run (JSONL, Prometheus text); returns the paths.

    Both texts are built before either file is touched, and each lands
    through :func:`atomic_write_text`: a row that fails to encode leaves the
    previous snapshot whole.
    """
    out_dir = Path(out_dir)
    jsonl = "".join(json.dumps(row) + "\n" for row in registry.snapshot())
    prom = registry.render_prometheus()
    return [
        atomic_write_text(out_dir / f"{name}.metrics.jsonl", jsonl),
        atomic_write_text(out_dir / f"{name}.metrics.prom", prom),
    ]


def write_trace_jsonl(recorder: TraceRecorder, path: str | Path) -> Path:
    """Dump a :class:`TraceRecorder` as JSONL (non-serializable fields repr'd)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for entry in recorder.iter_entries():
            row = {"time": entry.time, "category": entry.category, **entry.fields}
            fh.write(json.dumps(row, default=str) + "\n")
    return path
