"""Every cell snapshot of six serial quick runs is the one pinned.

The pin holds flight schema 1's ``stats.cell`` events; each run's
``stats.grid`` events are expanded back into those (``stats_cell_digest.py``).

``data/stats_cell_quick.sha256`` was recorded (by ``stats_cell_digest.py``)
before the sweep loop built a group's cells as columns, and re-recorded
when the stratified cells took the continuity-corrected half-width and
when the sweep's keys became 32-bit halves of raw PCG64 words; ``make
quick-estimators`` checks the same digests against its own runs' streams.
"""

import pytest

from repro.experiments import runner
from tests.obs.stats_cell_digest import RUNS, pinned, stats_cell_digest


def test_the_pin_covers_every_run():
    assert sorted(pinned()) == sorted(RUNS)


@pytest.mark.parametrize("label", list(RUNS))
def test_stats_cell_events_match_the_pin(label, tmp_path):
    name, extra = RUNS[label]
    assert runner.main(["--quick", name, *extra, "--no-metrics", "--out", str(tmp_path)]) == 0
    assert stats_cell_digest(tmp_path / f"{name}.flight.jsonl") == pinned()[label]
