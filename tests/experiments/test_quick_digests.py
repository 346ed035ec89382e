"""The live-protocol quick CSVs are the bytes recorded before the event core was rebuilt.

``tests/simkit/data/des_quick.sha256`` pins the twelve DES-backed quick CSVs
and ``tests/topology/data/estimators_quick.sha256`` the ablations', whose
sweep-period table comes from the DES too.  ``make quick-engine`` checks them
on a ``--jobs 2`` run; here the quick profiles of every DES driver but the
two ``desval`` ones (≈ 10 s; ``des_metric_rows.json`` pins ``one_replicate``)
run in-process, serially.

``data/topologysweep_stratified_quick.sha256`` pins the seven CSVs of
``--quick topologysweep --mc-method stratified``, the generic
topology-stratified sweep, recorded at the threshold kernel that ranked
every key before the breakdown search.
"""

import hashlib
from pathlib import Path

import pytest

from repro.engine import get_spec

TESTS = Path(__file__).resolve().parents[1]
DES_QUICK = TESTS / "simkit" / "data" / "des_quick.sha256"
ESTIMATORS_QUICK = TESTS / "topology" / "data" / "estimators_quick.sha256"
STRATIFIED_QUICK = TESTS / "experiments" / "data" / "topologysweep_stratified_quick.sha256"


def _assert_pinned(out: Path, name: str, digests: Path) -> None:
    pinned = {
        csv: digest
        for digest, csv in (line.split() for line in digests.read_text().splitlines())
        if csv.startswith(f"{name}_")
    }
    produced = sorted(path.name for path in out.glob(f"{name}_*.csv"))
    assert produced == sorted(pinned) and produced
    for csv in produced:
        assert hashlib.sha256((out / csv).read_bytes()).hexdigest() == pinned[csv], csv


@pytest.mark.parametrize(
    ("name", "digests"),
    [
        ("figure1", DES_QUICK),
        ("failover", DES_QUICK),
        ("scaling", DES_QUICK),
        ("grayfailure", DES_QUICK),
        ("ablations", ESTIMATORS_QUICK),
    ],
)
def test_quick_csvs_match_the_pinned_digests(name, digests, tmp_path):
    spec = get_spec(name)
    spec.run(**spec.kwargs("quick")).write(tmp_path)
    _assert_pinned(tmp_path, name, digests)


def test_stratified_topologysweep_csvs_match_the_pinned_digests(tmp_path):
    spec = get_spec("topologysweep")
    spec.run(**spec.kwargs("quick"), mc_method="stratified").write(tmp_path)
    _assert_pinned(tmp_path, "topologysweep", STRATIFIED_QUICK)
    assert len(list(tmp_path.glob("topologysweep_*.csv"))) == 7
