"""``Histogram.observe`` files every value where the linear scan it replaced did."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, DEFAULT_LATENCY_BUCKETS, Histogram


class ScanHistogram(Histogram):
    """Reference: the ``enumerate`` scan ``observe`` used before ``bisect_left``."""

    def observe(self, value):
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


def _same(a, b):
    return a == b or (a != a and b != b)  # NaN-aware


_BOUND_SETS = (DEFAULT_LATENCY_BUCKETS, DEFAULT_COUNT_BUCKETS, (1.0,), (0.0, 0.0, 1.0), (1.0, math.inf))


@st.composite
def _bounds_and_values(draw):
    bounds = draw(st.sampled_from(_BOUND_SETS))
    edges = [float(b) for b in bounds]
    near = [math.nextafter(b, s) for b in edges if math.isfinite(b) for s in (-math.inf, math.inf)]
    special = [0.0, -0.0, -1.0, -1e300, 1e300, math.inf, -math.inf, math.nan]
    value = st.one_of(st.sampled_from(edges + near + special), st.floats(allow_nan=True), st.integers(-3, 70))
    return bounds, draw(st.lists(value, max_size=40))


@given(_bounds_and_values())
def test_observe_matches_the_linear_scan(case):
    bounds, values = case
    fast, scan = Histogram("h", bounds), ScanHistogram("h", bounds)
    for value in values:
        fast.observe(value)
        scan.observe(value)
        assert fast.counts == scan.counts
    assert fast.count == scan.count == len(values)
    assert sum(fast.counts) == len(values)
    assert _same(fast.sum, scan.sum) and _same(fast.min, scan.min) and _same(fast.max, scan.max)


def test_nan_lands_in_the_overflow_bucket():
    h = Histogram("h", (1.0, 2.0))
    h.observe(math.nan)
    assert h.counts == [0, 0, 1]
