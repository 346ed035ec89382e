"""Deterministic named random-number streams.

Every stochastic component draws from its own :class:`numpy.random.Generator`
derived from a single root :class:`numpy.random.SeedSequence` keyed by the
component's name.  Two properties follow:

* the whole simulation is reproducible from one integer seed, and
* adding a new random consumer (a new node, a new fault source) never
  perturbs the draws seen by existing consumers.
"""

from __future__ import annotations

import zlib

import numpy as np


def spawn_seedseq(seed: int, *names: str) -> np.random.SeedSequence:
    """Child :class:`~numpy.random.SeedSequence` keyed by a name path.

    This is the :meth:`SeedSequence.spawn` mechanism with the spawn key
    derived from ``names`` (via crc32, stable across processes) instead of a
    sequential counter, so a child depends only on ``(seed, names)`` — never
    on how many siblings were spawned before it or in what order.  Experiment
    job plans use it to give every job an independent, reproducible stream.
    """
    key = tuple(zlib.crc32(name.encode("utf-8")) for name in names)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def spawned_rng(seed: int, *names: str) -> np.random.Generator:
    """A fresh PCG64 generator over :func:`spawn_seedseq`'s child sequence."""
    return np.random.Generator(np.random.PCG64(spawn_seedseq(seed, *names)))


def seed_fingerprint(seq: np.random.SeedSequence) -> int:
    """Stable 64-bit fingerprint of a seed sequence (for run manifests).

    ``generate_state`` is pure — fingerprinting a sequence does not perturb
    generators later built from it.
    """
    return int(seq.generate_state(1, np.uint64)[0])
