"""The flight stream is declared once (``KINDS``) and read once (``JsonlReader``).

``data/golden.flight.jsonl`` is assembled, line for line, from real runs —
serial, process pool, distributed with a killed worker, killed-then-resumed,
``--target-ci`` crn and stratified-cv, the topology catalog, plus engine-API
plans for retry / timeout / quarantine / ``job.dropped`` / ``pool.respawn`` /
``plan.interrupted`` / ``checkpoint.compact``.  The ``golden.*`` files next to
it are what every view of that stream printed *before* the views were folded
onto one schema table, one reader and one parser per kind; they must replay
byte for byte.  Never re-record them to make a change pass.  (Flight schema
2 re-recorded them once, as an artifact change: each per-cell ``stats.cell``
line became a one-entry ``stats.grid`` line with the same ``t``, ``pid``,
``seq`` and values, and the views moved only in the kind's name and the
schema number.)
"""

import json
from pathlib import Path

import pytest

from repro.obs import flightrecorder
from repro.obs.cli import main as obs_main
from repro.obs.flightrecorder import (
    COMMON_FIELDS,
    EVENT_KINDS,
    KINDS,
    JsonlReader,
    flight_summary,
    kinds_table,
    read_flight_events,
    read_jsonl,
)
from repro.obs.precision import (
    GRID_COLUMNS,
    GRID_LABELS,
    STATS_GRID_KIND,
    fold_cells,
    precision_report,
    render_precision_report,
)
from repro.obs.spans import (
    FLIGHT_INSTANT_KINDS,
    FLIGHT_SCHEDULER_INSTANTS,
    flight_to_chrome_trace,
    spans_from_entries,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.watch import WatchState, render_watch
from tests.engine.test_lifecycle import BACKENDS, _mixed_run

REPO_ROOT = Path(__file__).resolve().parents[2]
DATA = Path("tests/obs/data")  # the goldens embed this relative path
FLIGHT = DATA / "golden.flight.jsonl"
TRACE = DATA / "golden.trace.jsonl"


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


@pytest.fixture(scope="module")
def events():
    return read_flight_events(REPO_ROOT / FLIGHT)


def _golden(name):
    return (REPO_ROOT / DATA / name).read_text()


def _canonical(value):
    return json.dumps(value, sort_keys=True)


def _assert_conforms(stream):
    for event in stream:
        assert event["kind"] in KINDS, event
        extra = set(event) - set(COMMON_FIELDS) - set(KINDS[event["kind"]].fields)
        assert not extra, f"{event['kind']} carries undeclared field(s) {sorted(extra)}"


# ------------------------------------------------------------------ the schema
def test_fixture_is_small_and_exercises_every_kind(events):
    assert len(_golden("golden.flight.jsonl").splitlines()) <= 300
    assert {event["kind"] for event in events} == set(KINDS) == EVENT_KINDS
    assert len(KINDS) == 23
    assert KINDS[STATS_GRID_KIND].fields == GRID_LABELS + GRID_COLUMNS


def test_fixture_conforms_to_the_schema(events):
    _assert_conforms(events)


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_live_streams_conform_to_the_schema(backend, tmp_path):
    _, observed = _mixed_run(backend, tmp_path / "run")
    stream = observed.events()
    assert {"job.resumed", "job.retry", "job.quarantined"} <= {e["kind"] for e in stream}
    _assert_conforms(stream)


def test_everything_that_enumerates_kinds_is_derived_from_the_table():
    table = kinds_table()
    assert table.count("\n") == len(KINDS) + 1
    assert table in flightrecorder.__doc__
    assert table in (REPO_ROOT / "docs" / "observability.md").read_text()
    drawn = {kind.draw for kind in KINDS.values()}
    assert drawn == {"bar", "worker", "scheduler", "counter", None}
    assert FLIGHT_INSTANT_KINDS == {"worker.spawn", "worker.exit", "job.retry", "job.timeout"}
    assert FLIGHT_SCHEDULER_INSTANTS == {
        "plan.begin", "plan.end", "job.submitted", "job.resumed", "pool.respawn",
        "checkpoint.write", "heartbeat",
    }


# ------------------------------------------------------------------ the reader
def test_reader_skips_and_counts_whatever_is_not_a_json_object(tmp_path):
    path = tmp_path / "damaged.jsonl"
    path.write_text('{"a": 1}\n\nnot json\n[1, 2]\n"text"\n{"b": 2}\n{"torn": tr')
    reader = JsonlReader(path)
    assert reader.read() == [{"a": 1}, {"b": 2}]
    assert reader.skipped == 4
    assert read_jsonl(path) == [{"a": 1}, {"b": 2}]


def test_a_following_reader_holds_an_unterminated_tail_back(tmp_path):
    path = tmp_path / "live.jsonl"
    reader = JsonlReader(path)
    assert reader.read(follow=True) == []  # not created yet
    path.write_text('{"a": 1}\n{"b": ')
    assert reader.read(follow=True) == [{"a": 1}]
    with path.open("a") as fh:
        fh.write('2}\n{"c": 3}\n')
    assert reader.read(follow=True) == [{"b": 2}, {"c": 3}]
    assert reader.read(follow=True) == [] and reader.skipped == 0


# --------------------------------------------------------- views of the stream
def test_watch_state_and_dashboard_replay(events):
    state = WatchState().apply_all(events)
    assert _canonical(state.to_dict()) == _canonical(json.loads(_golden("golden.watch.json")))
    assert render_watch(state, color=False) + "\n" == _golden("golden.watch.txt")


def test_summary_and_cells_replay(events):
    assert _canonical(flight_summary(events)) == _canonical(
        json.loads(_golden("golden.summary.json"))
    )
    cells = [[list(key), row] for key, row in fold_cells(events).items()]
    assert _canonical(cells) == _canonical(json.loads(_golden("golden.cells.json")))


def test_precision_report_replays(events):
    report = precision_report(list(fold_cells(events).values()))
    golden = json.loads(_golden("golden.precision.json"))
    assert _canonical({"source": str(FLIGHT), **report}) == _canonical(golden)
    assert render_precision_report(report, source=FLIGHT.name) + "\n" == _golden(
        "golden.precision.txt"
    )


def test_perfetto_exports_replay(events):
    flight_doc = flight_to_chrome_trace(events)
    assert validate_chrome_trace(flight_doc) == []
    assert json.dumps(flight_doc) + "\n" == _golden("golden.flight.chrome.json")
    rows = read_jsonl(REPO_ROOT / TRACE)
    trace_doc = to_chrome_trace(spans_from_entries(rows), rows)
    assert validate_chrome_trace(trace_doc) == []
    assert json.dumps(trace_doc) + "\n" == _golden("golden.trace.spans.json")


@pytest.mark.parametrize(
    "argv, golden",
    [
        ([str(FLIGHT)], "golden.flight.obs.txt"),
        (["--json", str(FLIGHT)], "golden.flight.obs.json"),
        ([str(TRACE)], "golden.trace.obs.txt"),
        (["--json", str(TRACE)], "golden.trace.obs.json"),
        (["watch", str(FLIGHT), "--once", "--json"], "golden.watch.json"),
        (["watch", str(FLIGHT), "--once", "--no-color"], "golden.watch.txt"),
        (["precision", str(FLIGHT), "--json"], "golden.precision.json"),
        (["precision", str(FLIGHT)], "golden.precision.txt"),
    ],
)
def test_repro_obs_output_replays(argv, golden, capsys):
    assert obs_main(argv) == 0
    assert capsys.readouterr().out == _golden(golden)


def test_ci_half_width_counter_keys_cells_like_every_other_view():
    # the export used to key its running-worst tracker by (n, f) alone, so in
    # a multi-topology stream the second topology's (4, 1) cell clobbered the
    # first's and the counter under-reported the worst open interval
    def cell(t, topology, half_width):
        return {"t": t, "kind": "stats.grid", "pid": 1, "topology": topology, "n": [4], "f": [1],
                "half_width": [half_width]}

    doc = flight_to_chrome_trace([cell(1.0, "dual-hub(n=4)", 0.02), cell(2.0, "khub(n=4)", 0.01)])
    worst = [e["args"]["worst"] for e in doc["traceEvents"] if e.get("name") == "ci half-width"]
    assert worst == [0.02, 0.02]
