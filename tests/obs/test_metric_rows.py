"""``metrics.jsonl`` counts what it counted: the count rows of six DES runs are pinned.

``data/des_metric_rows.json`` was recorded by ``metric_rows.py`` at the commit
before component counters were built on their registry totals; a change that
counts one frame, probe, drop, repair or event differently moves a row.
"""

import json
from pathlib import Path

from tests.obs.metric_rows import metric_rows

RECORDED = json.loads((Path(__file__).parent / "data" / "des_metric_rows.json").read_text())


def test_count_rows_match_the_recording():
    rows = json.loads(json.dumps(metric_rows()))
    assert rows.keys() == RECORDED.keys()
    for run, recorded in RECORDED.items():
        assert rows[run] == recorded, run


def test_the_recording_pins_the_replicate_event_counts():
    def events(run):
        (row,) = (r for r in RECORDED[run] if r["name"] == "sim_events_total" and "labels" not in r)
        return row["value"]

    assert events("one_replicate/n=8/f=2") == 10561
    assert events("one_replicate/n=12/f=4") == 24360
