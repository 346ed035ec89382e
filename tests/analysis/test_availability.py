"""Tests for the availability-planning layer."""

import pytest

from repro.analysis import (
    component_unavailability,
    iid_success_probability,
    pair_availability,
    success_probability,
)


def test_component_unavailability():
    assert component_unavailability(99, 1) == pytest.approx(0.01)
    assert component_unavailability(100, 0) == 0.0
    with pytest.raises(ValueError):
        component_unavailability(0, 1)
    with pytest.raises(ValueError):
        component_unavailability(10, -1)


def test_iid_success_rho_zero_is_one():
    assert iid_success_probability(10, 0.0) == pytest.approx(1.0)


def test_iid_success_bounded_and_monotone_in_rho():
    p_low = iid_success_probability(10, 0.001)
    p_high = iid_success_probability(10, 0.05)
    assert 0 < p_high < p_low < 1


def test_iid_success_improves_with_n():
    # the paper's headline carried into the time domain
    assert iid_success_probability(40, 0.01) > iid_success_probability(4, 0.01)


def test_iid_mixing_consistent_with_conditional():
    # mixture bounded by the best and worst conditional values it averages
    rho = 0.02
    n = 8
    p = iid_success_probability(n, rho)
    assert success_probability(n, 2 * n + 2) <= p <= success_probability(n, 0)


def test_iid_validation():
    with pytest.raises(ValueError):
        iid_success_probability(10, 1.0)
    with pytest.raises(ValueError):
        iid_success_probability(10, -0.1)


def test_pair_availability_report_fields():
    report = pair_availability(n=10, mtbf_hours=10_000, mttr_hours=24, repair_latency_s=2.0)
    assert 0 < report.combined_availability < 1
    assert report.combined_availability == pytest.approx(
        report.structural_availability * report.transient_availability
    )
    assert report.downtime_minutes_per_year > 0
    assert report.nines > 2


def test_faster_repair_buys_availability():
    slow = pair_availability(10, 10_000, 24, repair_latency_s=9.0)   # reactive-ish
    fast = pair_availability(10, 10_000, 24, repair_latency_s=1.0)   # DRS-ish
    assert fast.combined_availability > slow.combined_availability
    assert fast.downtime_minutes_per_year < slow.downtime_minutes_per_year
    # EXP-AVAIL's headline row: N=12, MTBF one year, DRS repair latency
    assert pair_availability(12, 8_760, 24, repair_latency_s=1.1).nines > 4


def test_bigger_cluster_buys_structural_availability():
    small = pair_availability(4, 10_000, 24, 1.0)
    large = pair_availability(32, 10_000, 24, 1.0)
    assert large.structural_availability > small.structural_availability


def test_validation():
    with pytest.raises(ValueError):
        pair_availability(10, 10_000, 24, repair_latency_s=-1)
