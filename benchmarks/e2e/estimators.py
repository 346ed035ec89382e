"""Reducing the K reps of a run, and two runs of the same code, to numbers."""

from __future__ import annotations

import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float], better: str, estimator: str) -> dict[str, float]:
    """One metric's K reps -> value (best or median), median, quartiles, n.

    ``best`` is the minimum of a lower-is-better metric and the maximum of a
    higher-is-better one.
    """
    if not values:
        raise ValueError("no reps to summarize")
    q1, median, q3 = quartiles(values)
    if estimator == "best":
        value = min(values) if better == "lower" else max(values)
    elif estimator == "median":
        value = median
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return {"value": value, "median": median, "q1": q1, "q3": q3, "n": len(values)}


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the second value is worse (negative: better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
