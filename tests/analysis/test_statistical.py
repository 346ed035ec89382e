"""Statistical regression tests: MC vs closed form, and sampler uniformity.

Pinned seeds make these deterministic: they are regression tests on the
estimator pipeline (sampler + predicate + mean), not flaky coin flips.  The
acceptance bands are pre-registered statistical intervals — a Wilson 99.9%
CI around the Monte Carlo estimate must cover Equation 1, and a chi-square
test at alpha=0.001 must not reject uniformity of the sampled failure sets.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.analysis.exact import success_probability
from repro.analysis.montecarlo import sample_failure_matrix, simulate_grid
from repro.analysis.stats import wilson_interval
from tests.conftest import keyed

PINNED_SEED = 12345
MC_ITERATIONS = 20_000

#: (n, f) grid for the MC-vs-exact regression.
GRID = [(n, f) for n in (4, 8, 16) for f in (2, 3, 4)]

#: chi-square critical values at alpha = 0.001 for the degrees of freedom
#: used below (no scipy at runtime).
CHI2_CRIT_0P001 = {14: 36.123, 19: 43.820}


@pytest.mark.parametrize("n,f", GRID)
def test_mc_agrees_with_exact_within_wilson_999_ci(n, f):
    p_hat = simulate_grid(n, (f,), MC_ITERATIONS, keyed(PINNED_SEED, f"mc/n={n}/f={f}"))[f]
    successes = round(p_hat * MC_ITERATIONS)
    estimate = wilson_interval(successes, MC_ITERATIONS, confidence=0.999)
    exact = success_probability(n, f)
    assert estimate.low <= exact <= estimate.high, (
        f"n={n} f={f}: exact {exact:.6f} outside Wilson 99.9% CI "
        f"[{estimate.low:.6f}, {estimate.high:.6f}] around MC {p_hat:.6f} "
        f"({MC_ITERATIONS} iterations, seed {PINNED_SEED})"
    )
    assert abs(p_hat - exact) <= estimate.half_width


def test_wilson_999_confidence_is_supported():
    estimate = wilson_interval(500, 1000, confidence=0.999)
    assert estimate.low < 0.5 < estimate.high
    # tighter confidence -> wider interval
    assert estimate.half_width > wilson_interval(500, 1000, confidence=0.95).half_width
    # arbitrary levels resolve through the inverse-normal fallback now
    assert wilson_interval(500, 1000, confidence=0.42).half_width < estimate.half_width
    with pytest.raises(ValueError, match="confidence"):
        wilson_interval(500, 1000, confidence=1.0)


@pytest.mark.parametrize("f,df", [(2, 14), (3, 19)])
def test_failure_sets_uniform_at_n2_chi_square(f, df):
    """Every C(6, f) failure set at n=2 should be equally likely."""
    n = 2
    width = 2 * n + 2
    categories = {subset: i for i, subset in enumerate(combinations(range(width), f))}
    assert len(categories) == df + 1

    rng = np.random.default_rng(PINNED_SEED)
    draws = 30_000
    failed = sample_failure_matrix(n, f, draws, rng)
    counts = np.zeros(len(categories), dtype=int)
    for row in failed:
        counts[categories[tuple(np.flatnonzero(row))]] += 1

    assert counts.sum() == draws
    assert (counts > 0).all()  # every subset reachable
    expected = draws / len(categories)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_0P001[df], (
        f"chi-square {chi2:.2f} exceeds the alpha=0.001 critical value "
        f"{CHI2_CRIT_0P001[df]} for df={df}: sampler is not uniform over "
        f"C({width},{f}) failure sets"
    )
