"""Checkpoint stream: value round-trips, validation against the plan, atomicity."""

import json

import numpy as np
import pytest

from repro.engine import Checkpoint, Job, JobOutcome, JobPlan, SerialExecutor
from repro.engine.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointVersionError,
    decode_value,
    encode_value,
)


def _noop(params, seed_seq):
    return params.get("v", 0.0)


def _plan(names=("a", "b", "c"), seed=11, experiment="toy"):
    jobs = [Job(name=n, fn=_noop, params={"v": float(i)}) for i, n in enumerate(names)]
    return JobPlan(experiment=experiment, seed=seed, jobs=jobs, reduce=lambda v: v)


def _record(checkpoint, plan, name, value, attempts=1):
    assert checkpoint.record(plan, JobOutcome(name=name, ok=True, value=value, attempts=attempts))


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            -3,
            "text",
            0.1 + 0.2,  # float repr round-trips exactly through JSON
            1e-308,
            (1.5, 2.5),
            (1, ("nested", 2.0)),
            [1.0, 2.0],
            {"k": 1.0, "nested": {"t": (3, 4)}},
        ],
    )
    def test_json_round_trip_is_exact(self, value):
        encoded = json.loads(json.dumps(encode_value(value)))
        assert decode_value(encoded) == value

    def test_numpy_scalars_normalize(self):
        assert encode_value(np.float64(0.25)) == 0.25
        assert encode_value(np.int64(7)) == 7
        assert encode_value(np.bool_(True)) is True

    def test_ndarray_round_trips(self):
        arr = np.array([0.1, 0.2, 0.3])
        back = decode_value(json.loads(json.dumps(encode_value(arr))))
        assert isinstance(back, np.ndarray)
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)

    def test_rejects_unencodable(self):
        with pytest.raises(TypeError):
            encode_value(object())
        with pytest.raises(TypeError):
            encode_value({1: "non-string key"})
        with pytest.raises(TypeError):
            encode_value({"__tuple__": [1]})  # collides with the type tag


class TestCheckpointRoundTrip:
    def test_record_then_load(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 0.125, attempts=2)
        _record(checkpoint, plan, "b", (1.5, 2.5))

        fresh = Checkpoint(path)
        records = {r.job: r for r in fresh.load(plan)}
        assert set(records) == {"a", "b"}
        assert records["a"].value == 0.125 and records["a"].attempts == 2
        assert records["b"].value == (1.5, 2.5)

    def test_duplicate_records_last_wins(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 1.0)
        _record(checkpoint, plan, "a", 2.0)
        records = Checkpoint(path).load(plan)
        assert [r.value for r in records if r.job == "a"] == [2.0]

    def test_unencodable_value_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        assert not checkpoint.record(plan, JobOutcome(name="a", ok=True, value=object()))
        _record(checkpoint, plan, "b", 1.0)
        assert Checkpoint(path).load(plan)[0].job == "b"


class TestCheckpointValidation:
    def test_wrong_root_seed_discards_records(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan(seed=11)
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 1.0)
        assert Checkpoint(path).load(_plan(seed=12)) == []

    def test_wrong_experiment_discards_records(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan(experiment="toy")
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 1.0)
        assert Checkpoint(path).load(_plan(experiment="other")) == []

    def test_unknown_job_discarded(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan(names=("a", "b", "c"))
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "c", 1.0)
        shrunk = _plan(names=("a", "b"))
        assert Checkpoint(path).load(shrunk) == []

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 1.0)
        with path.open("a") as fh:
            fh.write('{"torn wri\n')
            fh.write("not json at all\n")
        records = Checkpoint(path).load(plan)
        assert [r.job for r in records] == ["a"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert Checkpoint(tmp_path / "absent.jsonl").load(_plan()) == []

    @pytest.mark.parametrize(
        "schema",
        [CHECKPOINT_SCHEMA_VERSION - 1, CHECKPOINT_SCHEMA_VERSION + 1, "1"],
        ids=["older", "newer", "a-string"],
    )
    def test_a_record_of_another_schema_is_refused_in_one_error(self, tmp_path, schema):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 1.0)
        record = json.loads(path.read_text())
        record["schema"] = schema
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(ValueError) as excinfo:
            Checkpoint(path).load(plan)
        assert str(excinfo.value) == (f"{path}: checkpoint record schema {schema!r}; "
                                      f"this repro reads schema {CHECKPOINT_SCHEMA_VERSION}")

    def test_a_line_without_schema_is_skipped_and_counted_stale(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 1.0)
        _record(checkpoint, plan, "b", 2.0)
        first, second = path.read_text().splitlines()
        record = json.loads(second)
        del record["schema"]
        path.write_text(f"{first}\n{json.dumps(record)}\n")
        fresh = Checkpoint(path, compact_threshold=1)
        assert [r.job for r in fresh.load(plan)] == ["a"]
        _record(fresh, plan, "c", 3.0)  # the schema-less line is the one stale line
        assert fresh.compactions == 1
        assert [json.loads(line)["job"] for line in path.read_text().splitlines()] == ["a", "c"]


class TestCorruptInterior:
    """A record whose bytes changed after the write is never taken for a value."""

    VALUES = {"a": 0.1234567890123, "b": (3, -2.5e-7, "x"), "c": {"k": [1.5, True]}}

    def _plan(self):
        jobs = [Job(name=n, fn=_noop, params={"v": v}) for n, v in self.VALUES.items()]
        return JobPlan(experiment="toy", seed=11, jobs=jobs, reduce=lambda v: v)

    def test_a_flipped_bit_is_skipped_or_refused_never_a_changed_value(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = self._plan()
        checkpoint = Checkpoint(path)
        checkpoint.commit(plan, [JobOutcome(name=n, ok=True, value=v) for n, v in self.VALUES.items()])
        lines = path.read_bytes().splitlines(keepends=True)
        outcomes = {"loaded": 0, "skipped": 0, "refused": 0}
        for i, line in enumerate(lines):
            for bit in range(8 * len(line)):
                flipped = bytearray(line)
                flipped[bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(b"".join([*lines[:i], bytes(flipped), *lines[i + 1:]]))
                try:
                    records = Checkpoint(path).load(plan)
                except CheckpointVersionError as exc:
                    assert "\n" not in str(exc)
                    outcomes["refused"] += 1
                    continue
                for record in records:
                    assert encode_value(record.value) == encode_value(self.VALUES[record.job])
                outcomes["loaded" if len(records) == len(lines) else "skipped"] += 1
        assert outcomes["skipped"] and outcomes["refused"]

    def test_the_job_of_a_skipped_record_runs_again(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = self._plan()
        Checkpoint(path).commit(plan, [JobOutcome(name="a", ok=True, value=0.5)])
        assert [r.value for r in Checkpoint(path).load(plan)] == [0.5]
        # the same value written with one digit changed: the line still parses
        path.write_text(path.read_text().replace('"value": 0.5', '"value": 0.6'))
        resumed = SerialExecutor().run(plan, checkpoint=Checkpoint(path))
        assert resumed.resumed == [] and resumed.values == self.VALUES


class TestAtomicity:
    def test_every_flush_leaves_valid_jsonl_and_no_tmp(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        for i, name in enumerate(("a", "b", "c")):
            _record(checkpoint, plan, name, float(i))
            lines = path.read_text().splitlines()
            assert len(lines) == i + 1
            for line in lines:
                json.loads(line)  # every snapshot parses in full
            assert not list(tmp_path.glob("*.tmp"))


class TestAppendOnly:
    def test_each_record_only_appends_bytes(self, tmp_path):
        """O(1) writes: between compactions a record never rewrites the file."""
        names = tuple(f"job{i}" for i in range(40))
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan(names=names)
        checkpoint = Checkpoint(path)
        checkpoint.load(plan)
        previous = b""
        for i, name in enumerate(names):
            _record(checkpoint, plan, name, float(i))
            content = path.read_bytes()
            assert content.startswith(previous), "a persisted prefix was rewritten"
            assert len(content) > len(previous)
            previous = content
        assert checkpoint.compactions == 0  # no duplicates -> nothing stale

    def test_duplicates_trigger_compaction_at_the_threshold(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path, compact_threshold=3)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", 0.0)
        for i in range(1, 3):  # two supersessions: still below the threshold
            _record(checkpoint, plan, "a", float(i))
        assert checkpoint.compactions == 0
        assert len(path.read_text().splitlines()) == 3  # live + 2 stale
        _record(checkpoint, plan, "a", 99.0)  # third stale line: compacts
        assert checkpoint.compactions == 1
        assert path.read_text().splitlines() != []
        assert len(path.read_text().splitlines()) == 1  # one live record
        records = Checkpoint(path).load(plan)
        assert [(r.job, r.value) for r in records] == [("a", 99.0)]

    def test_stale_lines_counted_across_loads(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        first = Checkpoint(path)
        first.load(plan)
        for value in (1.0, 2.0, 3.0):
            _record(first, plan, "a", value)
        with path.open("a") as fh:
            fh.write('{"torn wri\n')  # a torn tail is stale too

        fresh = Checkpoint(path, compact_threshold=3)
        fresh.load(plan)  # 4 lines, 1 live -> 3 stale: at the threshold
        _record(fresh, plan, "b", 1.0)
        assert fresh.compactions == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # exactly the live records survive
        reloaded = {r.job: r.value for r in Checkpoint(path).load(plan)}
        assert reloaded == {"a": 3.0, "b": 1.0}

    def test_compaction_keeps_value_round_trip_exact(self, tmp_path):
        path = tmp_path / "toy.checkpoint.jsonl"
        plan = _plan()
        checkpoint = Checkpoint(path, compact_threshold=1)
        checkpoint.load(plan)
        _record(checkpoint, plan, "a", (0.1 + 0.2, np.float64(1e-308)))
        _record(checkpoint, plan, "a", (0.1 + 0.2, np.float64(1e-308)))  # compacts
        assert checkpoint.compactions == 1
        records = Checkpoint(path).load(plan)
        assert records[0].value == (0.1 + 0.2, 1e-308)
