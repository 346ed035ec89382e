"""EXP-GRAY — DRS robustness to random frame loss (gray failures).

The deployed protocol's probe-retry threshold exists for exactly one
reason: a single lost probe on a healthy but lossy segment must not trigger
a reroute.  This experiment runs a *healthy* cluster whose segments drop
frames at random and measures, per (loss rate, retry threshold):

* the false-positive rate (spurious DOWN declarations per link-hour),
* the resulting spurious repairs (route flaps),

and, for the detection side of the trade-off, the added latency a higher
threshold costs when a real failure occurs under the same loss.
"""

from __future__ import annotations

import dataclasses

from repro.drs import DrsConfig
from repro.experiments.base import ExperimentResult
from repro.scenario.run import peer_nic_failures, run_scenario
from repro.scenario.spec import ScenarioSpec, Warmup
from repro.simkit.rng import spawn_seedseq

BASE_CONFIG = DrsConfig(sweep_period_s=0.5, probe_timeout_s=0.01, discovery_timeout_s=0.02)


def _lossy_spec(key: str, loss_rate: float, probe_retries: int, n: int, end: float, warmup: float) -> ScenarioSpec:
    """A DRS run on segments dropping ``loss_rate`` of frames, with a boundary at ``warmup``."""
    options = dataclasses.asdict(dataclasses.replace(BASE_CONFIG, probe_retries=probe_retries))
    return ScenarioSpec(key, n, end, "drs", options, loss_rate=loss_rate, warmup=Warmup(warmup))


def false_positive_rate(
    loss_rate: float,
    probe_retries: int,
    n: int = 6,
    sim_seconds: float = 120.0,
    seed: int = 0,
) -> tuple[float, float]:
    """(spurious DOWNs per link-hour, spurious repairs per hour) on a healthy cluster.

    The loss stream is spawned from ``seed`` keyed by the grid cell, so every
    (loss rate, retries) cell draws independently instead of all sharing the
    literal seed's stream.
    """
    key = f"grayfailure/fp/loss={loss_rate}/retries={probe_retries}"
    end = 1.0 + sim_seconds
    spec = _lossy_spec(key, loss_rate, probe_retries, n, end, 1.0)
    report = run_scenario(dataclasses.replace(spec, seed=spawn_seedseq(seed, key)))
    hours = (end - 1.0) / 3600.0
    links = n * (n - 1) * 2  # directed link beliefs across the cluster
    return len(report.detections) / (links * hours), len(report.repairs) / hours


def detection_latency_under_loss(
    loss_rate: float,
    probe_retries: int,
    n: int = 6,
    repeats: int = 5,
    seed: int = 1,
) -> float:
    """Mean time for node 0 to repair around a real peer-NIC failure.

    Each repeat's loss stream is an independent child spawned from ``seed``
    and keyed by (cell, repeat) — the old additive ``seed + i`` scheme made
    repeat ``i`` of one cell collide with repeat ``i - 1`` of a neighboring
    seed, correlating supposedly independent measurements.
    """
    end = 2.0 + (probe_retries + 4) * BASE_CONFIG.sweep_period_s + 2.0
    key = f"grayfailure/latency/loss={loss_rate}/retries={probe_retries}"
    seeds = [spawn_seedseq(seed, f"{key}/rep={i}") for i in range(repeats)]
    latency, _ = peer_nic_failures(_lossy_spec(key, loss_rate, probe_retries, n, end, 2.0), repeats, seeds)
    return latency


def run(
    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10),
    retry_values: tuple[int, ...] = (1, 2, 3),
    sim_seconds: float = 120.0,
) -> ExperimentResult:
    """False-positive / detection-latency trade-off grid."""
    result = ExperimentResult("grayfailure")
    fp_rows = []
    for loss in loss_rates:
        for retries in retry_values:
            fp, flaps = false_positive_rate(loss, retries, sim_seconds=sim_seconds)
            fp_rows.append([loss, retries, fp, flaps])
    result.add_table(
        "false_positives",
        ["loss rate", "probe retries", "spurious DOWNs / link-hour", "route flaps / hour"],
        fp_rows,
        caption="Healthy-but-lossy cluster: how often DRS cries wolf",
    )
    lat_rows = []
    for retries in retry_values:
        lat_rows.append([retries] + [detection_latency_under_loss(loss, retries) for loss in loss_rates])
    result.add_table(
        "detection_latency",
        ["probe retries"] + [f"detect+repair (s) @ loss={l}" for l in loss_rates],
        lat_rows,
        caption="The price of patience: real-failure repair latency per threshold",
    )
    result.note(
        "expected shape: retries=1 flaps even at modest loss; retries=2 (the "
        "deployed default) suppresses false positives below ~5% loss while "
        "adding about one sweep of detection latency"
    )
    return result
