"""Global test configuration."""

import numpy as np
from hypothesis import HealthCheck, settings

# Simulation-backed properties have per-example costs that vary with the
# drawn parameters; wall-clock deadlines would make them flaky on loaded
# machines, so correctness is bounded by example counts instead.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def keyed(seed: int, key: str) -> np.random.Generator:
    """An independent stream per ``(seed, key)``: ``seed``'s child spawned under ``key``.

    The estimators draw only from the generators they are handed.  A test
    that wants one stream per cluster size or per topology builds it here,
    under the key the estimator once spawned itself (``mc-grid/n={n}``,
    ``mc-strat/n={n}``, ``topo-grid/{name}``, ...), so it keeps the draws
    it was written against.
    """
    from repro.simkit.rng import spawn_seedseq

    return np.random.default_rng(spawn_seedseq(seed, key))


def grid_stream(seed: int, n: int, method: str = "crn") -> np.random.Generator:
    """:func:`keyed` under a dual-hub grid's per-N key (``mc-strat`` for the stratified methods)."""
    return keyed(seed, f"{'mc-grid' if method == 'crn' else 'mc-strat'}/n={n}")


def crn_keys(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """The CRN key rule, written out apart from ``src``: ``ceil(width / 2)`` raw
    PCG64 words a row, each split into its low then its high 32 bits."""
    words = rng.bit_generator.random_raw((rows, (width + 1) // 2))
    return np.stack([words & 0xFFFFFFFF, words >> 32], axis=2).reshape(rows, -1)[:, :width]
