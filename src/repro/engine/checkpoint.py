"""Crash-safe checkpointing of completed job results.

A long sweep streams every finished job into ``<run>/<name>.checkpoint.jsonl``
— one JSON record per job, **appended** in *commits*: every batch of outcomes
the driver settles together (one job on the serial backend, one chunk on the
process pool and the TCP coordinator) goes out as one write + flush + fsync,
so persisting costs O(1) I/O per commit regardless of how many records came
before it and one fsync per chunk rather than per job.  What a crash can
lose is therefore the commits in flight — the running job on serial, the
chunks not yet settled on the parallel backends — and never a record whose
``checkpoint.write`` event was emitted: the events follow the fsync.  A
``SIGKILL`` mid-append leaves a *torn group*: a prefix of the commit's lines,
the last of them possibly cut short.  The loader skips the one unparseable
line and keeps every whole record before it, so the artifact stays loadable
through a kill at any instant.  Superseded duplicates (a job
re-recorded after a retry or requeue) and foreign lines accumulate as
*stale* lines; once they outnumber the live records the file is compacted —
rewritten via write-temp-then-``os.replace`` down to one line per live
record.  ``repro run --resume <run>`` feeds the file back through
:meth:`Checkpoint.load`, which keeps only records that still match the
rebuilt plan (same experiment, same root seed, same per-job spawned-seed
fingerprint) — so a checkpoint taken under one seed can never contaminate a
run under another.  Every record ends in a ``crc``, the CRC-32 of its other
fields as serialized; a record whose fields no longer match it (a corrupt
interior line that still parses) is skipped like a torn one, and its job
runs again.

Because job values are deterministic functions of ``(root seed, experiment,
job name)`` (the engine's seed-spawning contract), a resumed run that skips
checkpointed jobs reduces to byte-identical final CSVs versus an
uninterrupted run.  Values round-trip through JSON exactly: Python floats
serialize shortest-round-trip, and the only non-JSON-native job value types
(tuples, NumPy scalars/arrays) are tagged by :func:`encode_value` /
:func:`decode_value`.

Fault injection for tests and CI: setting ``DRS_ENGINE_CRASH_AFTER=<k>``
SIGKILLs the process right after the ``k``-th record is persisted — the
commit that crosses ``k`` is cut to the prefix that reaches it, so the file
holds *exactly* ``k`` records (a torn group, at any position the test
picks).  The ``make quick-engine`` target uses it to prove the
interrupted+resumed run matches an uninterrupted one byte for byte.
"""

from __future__ import annotations

import json
import os
import signal
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.obs.artifacts import atomic_write_text
from repro.obs.flightrecorder import JsonlReader, flight_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.jobs import JobPlan
    from repro.engine.retry import JobOutcome

CHECKPOINT_SCHEMA_VERSION = 2

#: Test/CI-only fault injection: SIGKILL self after this many persisted records.
CRASH_AFTER_ENV = "DRS_ENGINE_CRASH_AFTER"

_records_persisted = 0  # process-wide, for the injection hook only


def encode_value(value: Any) -> Any:
    """JSON-safe form of a job value, tagging tuples and NumPy types.

    Raises ``TypeError`` for values with no faithful JSON round-trip:
    ``execute_job`` makes that the job's failure, so no such value reaches a
    checkpoint from the engine (``commit`` skips a hand-built one).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):  # np.float64 subclasses float: one form, the builtin
        return value if type(value) is float else float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, dict):
        if any(not isinstance(k, str) for k in value):
            raise TypeError("checkpointable dict values need string keys")
        if "__tuple__" in value or "__ndarray__" in value:
            raise TypeError("dict value collides with checkpoint type tags")
        return {k: encode_value(v) for k, v in value.items()}
    raise TypeError(f"job value of type {type(value).__name__} is not checkpointable")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode_value(v) for v in value["__tuple__"])
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value["dtype"])
        return {k: decode_value(v) for k, v in value.items()}
    return value


class CheckpointVersionError(ValueError):
    """A checkpoint record names a ``schema`` this repro does not read."""


@dataclass(frozen=True)
class CheckpointRecord:
    """One completed job: identity, provenance, and its (decoded) value."""

    experiment: str
    root_seed: int
    job: str
    seed_fingerprint: int
    value: Any
    attempts: int = 1
    elapsed_s: float = 0.0


class Checkpoint:
    """Streamed record of completed jobs backing ``--resume``.

    One instance per (experiment run, output directory).  ``load(plan)``
    returns the records still valid for the plan; ``commit(plan, outcomes)``
    persists a batch of completed jobs as one fsync'd append — O(1) I/O per
    commit — and ``record(plan, outcome)`` is the commit of one.  The file is
    compacted (atomic full rewrite) only when stale lines pile up.  A crash
    at any point tears at most the commit in flight, down to a prefix whose
    cut-short final line the loader skips.

    ``compact_threshold`` fixes the stale-line count that triggers
    compaction (checked once per commit); by default it scales with the live
    record count (never fewer than 64), which bounds the file at ~2× its
    compacted size while keeping compactions rare enough to stay amortized
    O(1) per record.
    """

    def __init__(self, path: str | Path, compact_threshold: int | None = None) -> None:
        if compact_threshold is not None and compact_threshold < 1:
            raise ValueError(f"compact_threshold must be >= 1, got {compact_threshold}")
        self.path = Path(path)
        self.compact_threshold = compact_threshold
        self.compactions = 0
        #: live records by job, in order of last write
        self._records: dict[str, CheckpointRecord] = {}
        self._stale_lines = 0
        self._fingerprints: dict[str, int] | None = None
        self._loaded_for: tuple[str, int] | None = None

    # -------------------------------------------------------------- loading
    def load(self, plan: "JobPlan") -> list[CheckpointRecord]:
        """Records of ``plan``'s jobs completed by a previous (or this) run.

        Validates each stored record against the plan: experiment name,
        root seed, and the job's current spawned-seed fingerprint must all
        match, and the job must still exist in the plan.  The file is read
        through the one JSONL reader (:class:`~repro.obs.flightrecorder.JsonlReader`),
        which skips and counts corrupt lines — e.g. the torn tail of a crash
        mid-append.  A line without a ``schema`` is skipped as foreign; a
        record of another ``schema`` raises :class:`CheckpointVersionError`,
        since its values may not mean what this version's would.  A record
        whose ``crc`` does not match its other fields is skipped.
        """
        self._fingerprints = plan.job_seeds()
        kept: dict[str, CheckpointRecord] = {}
        reader = JsonlReader(self.path)
        rows = reader.read() if self.path.exists() else []
        for raw in rows:
            found = raw.get("schema")
            if found is None:
                continue  # no writer of this repro left it: a foreign line
            if found != CHECKPOINT_SCHEMA_VERSION:
                raise CheckpointVersionError(
                    f"{self.path}: checkpoint record schema {found!r}; "
                    f"this repro reads schema {CHECKPOINT_SCHEMA_VERSION}"
                )
            if raw.pop("crc", None) != _crc(json.dumps(raw)):
                continue  # a field changed after it was written
            try:
                record = CheckpointRecord(
                    experiment=raw["experiment"],
                    root_seed=int(raw["root_seed"]),
                    job=raw["job"],
                    seed_fingerprint=int(raw["seed_fingerprint"]),
                    value=decode_value(raw["value"]),
                    attempts=int(raw.get("attempts", 1)),
                    elapsed_s=float(raw.get("elapsed_s", 0.0)),
                )
            except (KeyError, TypeError, ValueError):
                continue
            if record.experiment != plan.experiment or record.root_seed != plan.seed:
                continue
            if self._fingerprints.get(record.job) != record.seed_fingerprint:
                continue
            kept[record.job] = record  # duplicates: last write wins
        self._records = kept
        # corrupt (skipped by the reader), malformed, foreign, and superseded
        # lines all occupy file space without being live records — they are
        # what compaction reclaims
        self._stale_lines = reader.skipped + len(rows) - len(kept)
        self._loaded_for = (plan.experiment, plan.seed)
        return list(kept.values())

    # ------------------------------------------------------------ recording
    def record(self, plan: "JobPlan", outcome: "JobOutcome") -> bool:
        """Persist one completed job; returns False if its value can't encode."""
        return self.commit(plan, [outcome]) == 1

    def commit(self, plan: "JobPlan", outcomes: Iterable["JobOutcome"]) -> int:
        """Persist a batch of completed jobs as one durable group; returns how many.

        Every outcome whose value encodes is serialised, the lines are
        appended with one write + flush + fsync, and only then is each
        record's ``checkpoint.write`` event emitted — an event never names a
        record a crash could still lose.  An unencodable value is skipped —
        only a hand-built outcome can hold one (``execute_job`` fails the job).
        """
        if self._loaded_for != (plan.experiment, plan.seed):
            self.load(plan)
        assert self._fingerprints is not None
        group: list[tuple[CheckpointRecord, bytes]] = []
        for outcome in outcomes:
            try:
                encoded = encode_value(outcome.value)
            except TypeError:
                continue
            record = CheckpointRecord(
                experiment=plan.experiment,
                root_seed=plan.seed,
                job=outcome.name,
                seed_fingerprint=self._fingerprints[outcome.name],
                value=outcome.value,
                attempts=outcome.attempts,
                elapsed_s=outcome.elapsed_s,
            )
            group.append((record, (self._serialize(record, encoded) + "\n").encode("utf-8")))
        if not group:
            return 0
        # the crash-injection hook fires here: the group that crosses the
        # k-th record is cut to the prefix that reaches it, made durable, and
        # the process dies — "exactly k records on disk", now mid-group
        cut = _injected_crash_cut(len(group))
        if cut is not None:
            group = group[:cut]
        data = b"".join(line for _, line in group)
        offset = self._append(data) - len(data)
        if cut is not None:
            # SIGKILL (not an exception) so nothing — no finally blocks, no
            # atexit — gets to tidy up: the failure mode resume must survive
            os.kill(os.getpid(), signal.SIGKILL)
        recorder = flight_recorder()
        for record, line in group:
            if self._records.pop(record.job, None) is not None:
                self._stale_lines += 1  # the old line for this job is now dead
            self._records[record.job] = record
            offset += len(line)
            if recorder is not None:
                recorder.emit(
                    "checkpoint.write", job=record.job, records=len(self._records), bytes=offset
                )
        if self._stale_lines >= self._effective_compact_threshold():
            self.compact()
        return len(group)

    def _serialize(self, record: CheckpointRecord, encoded_value: Any) -> str:
        """The record's line: its fields, then the CRC-32 of their JSON text."""
        fields = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "experiment": record.experiment,
                "root_seed": record.root_seed,
                "job": record.job,
                "seed_fingerprint": record.seed_fingerprint,
                "value": encoded_value,
                "attempts": record.attempts,
                "elapsed_s": record.elapsed_s,
            }
        )
        return f'{fields[:-1]}, "crc": {_crc(fields)}}}'

    def _append(self, data: bytes) -> int:
        """Make one commit durable: append + flush + fsync; returns the file offset after it."""
        try:
            fh = self.path.open("ab")
        except FileNotFoundError:  # first commit of a run whose directory does not exist yet
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = self.path.open("ab")
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
            return fh.tell()

    def _effective_compact_threshold(self) -> int:
        if self.compact_threshold is not None:
            return self.compact_threshold
        return max(64, len(self._records))

    def compact(self) -> None:
        """Atomically rewrite the file down to one line per live record.

        Runs automatically when stale lines (superseded duplicates, foreign
        or torn lines) reach the threshold; safe to call by hand.  The
        rewrite goes through write-temp-then-``os.replace``, so a crash
        during compaction leaves the previous (valid, merely bloated) file.
        """
        reclaimed = self._stale_lines
        lines = [self._serialize(r, encode_value(r.value)) for r in self._records.values()]
        atomic_write_text(self.path, "\n".join(lines) + ("\n" if lines else ""))
        self._stale_lines = 0
        self.compactions += 1
        recorder = flight_recorder()
        if recorder is not None:
            recorder.emit(
                "checkpoint.compact",
                records=len(self._records),
                reclaimed=reclaimed,
                compactions=self.compactions,
                bytes=self.path.stat().st_size if self.path.exists() else 0,
            )


def _crc(fields: str) -> int:
    return zlib.crc32(fields.encode("utf-8"))


def _injected_crash_cut(group: int) -> int | None:
    """Honor ``DRS_ENGINE_CRASH_AFTER``: where a commit of ``group`` records must be cut.

    Returns how many of the group's records may reach disk before the
    process dies — the prefix that makes the file hold exactly k — or None
    while the k-th record is still ahead (or the hook is off).
    """
    budget = os.environ.get(CRASH_AFTER_ENV)
    if not budget:
        return None
    global _records_persisted
    _records_persisted += group
    excess = _records_persisted - int(budget)
    return None if excess < 0 else max(group - excess, 0)
