"""Statistical accounting for the Monte Carlo estimators.

The paper reports raw simulation means; a production harness should also
say how sure it is.  This module provides the Wilson score interval for
Bernoulli proportions (well-behaved near 0 and 1, where survivability
estimates live), in the vector form the sweep loop's grid builders read a
whole f-grid with.  A cell run to a requested interval half-width is the
loop's adaptive mode at one cell:
``simulate_grid(n, (f,), 10_000, rng, target_half_width=h)[f]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProportionEstimate:
    """A Bernoulli-proportion estimate with its Wilson interval."""

    successes: int
    trials: int
    confidence: float
    point: float
    low: float
    high: float

    @property
    def half_width(self) -> float:
        """Half the interval width — the precision actually achieved."""
        return (self.high - self.low) / 2.0


#: two-sided z for the legacy confidence levels: exact published values, so
#: results at these levels are bit-identical to every run recorded before the
#: inverse-normal fallback existed (no scipy needed at runtime)
_Z_TABLE = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758, 0.999: 3.2905}

# Coefficients of Acklam's rational approximation to the standard normal
# inverse CDF (relative error < 1.15e-9 over the whole open interval).
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)
_ACKLAM_LOW, _ACKLAM_HIGH = 0.02425, 1 - 0.02425


def normal_ppf(p: float) -> float:
    """Standard normal inverse CDF via Acklam's rational approximation.

    Dependency-free ``scipy.stats.norm.ppf`` stand-in, accurate to ~1e-9
    relative error — far below Monte Carlo resolution at any feasible
    trial count.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _ACKLAM_LOW:
        q = np.sqrt(-2.0 * np.log(p))
        a, b, c, d, e, f = _ACKLAM_C
        g, h, i, j = _ACKLAM_D
        return float((((((a * q + b) * q + c) * q + d) * q + e) * q + f)
                     / ((((g * q + h) * q + i) * q + j) * q + 1.0))
    if p > _ACKLAM_HIGH:
        return -normal_ppf(1.0 - p)
    q = p - 0.5
    r = q * q
    a, b, c, d, e, f = _ACKLAM_A
    g, h, i, j, k = _ACKLAM_B
    return float((((((a * r + b) * r + c) * r + d) * r + e) * r + f) * q
                 / (((((g * r + h) * r + i) * r + j) * r + k) * r + 1.0))


def _z_for(confidence: float) -> float:
    """Two-sided z for a confidence level in (0, 1).

    The historical table answers the four legacy levels with their exact
    published constants; every other level falls back to the inverse
    normal (:func:`normal_ppf`), so arbitrary confidences — 0.975, 0.9973,
    whatever a caller asks for — are first-class instead of a
    ``ValueError``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    key = round(confidence, 3)
    if key in _Z_TABLE and abs(confidence - key) < 1e-12:
        return _Z_TABLE[key]
    return normal_ppf((1.0 + confidence) / 2.0)


def wilson_bounds(successes, trials, z: float):
    """Wilson score interval ``(point, low, high)`` at two-sided ``z`` — the one formula.

    Elementwise over NumPy columns (the sweep loop's grid builders read a
    whole f-grid at once) or over plain ints (:func:`wilson_interval`, its
    one-cell case).  Every operation is a correctly rounded IEEE step in one
    fixed order, so a column entry equals the one-cell value bit for bit.
    ``trials`` must be positive wherever an entry is read.
    """
    p = successes / trials
    z2 = z * z
    denominator = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denominator
    margin = z * np.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denominator
    return p, np.maximum(0.0, center - margin), np.minimum(1.0, center + margin)


def centred_half_width(successes, trials, z: float):
    """``(point, half)``: the interval ``point ± half`` at two-sided ``z``.

    ``half`` is the longer arm of the continuity-corrected Wilson interval
    (Newcombe 1998, method 4), so ``point ± half`` holds all of it and
    covers at least nominally (checked over p in (0, 1) at 50 to 2,000
    trials), where Wilson's half-width centred on the point does not near
    ``point = 1``.  ``half`` stays positive at
    ``point`` 0 and 1.  Elementwise like :func:`wilson_bounds`, in one
    fixed order of IEEE steps.
    """
    p = successes / trials
    z2 = z * z
    centre = 2 * successes + z2
    denominator = 2 * (trials + z2)
    low_root = np.sqrt(np.maximum(0.0, z2 - 2 - 1 / trials + 4 * p * (trials * (1 - p) + 1)))
    high_root = np.sqrt(np.maximum(0.0, z2 + 2 - 1 / trials + 4 * p * (trials * (1 - p) - 1)))
    low = np.where(successes == 0, 0.0, np.maximum(0.0, (centre - 1 - z * low_root) / denominator))
    high = np.where(successes == trials, 1.0, np.minimum(1.0, (centre + 1 + z * high_root) / denominator))
    return p, np.maximum(p - low, high - p)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> ProportionEstimate:
    """Wilson score interval for ``successes`` out of ``trials``."""
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials], got {successes}/{trials}")
    point, low, high = wilson_bounds(successes, trials, _z_for(confidence))
    return ProportionEstimate(
        successes=successes,
        trials=trials,
        confidence=confidence,
        point=point,
        low=float(low),
        high=float(high),
    )
