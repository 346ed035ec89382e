"""Unit tests for the name-keyed random streams of :mod:`repro.simkit.rng`."""

import numpy as np

from repro.simkit.rng import spawned_rng


def test_different_names_independent_draws():
    a = spawned_rng(7, "a").random(8)
    b = spawned_rng(7, "b").random(8)
    assert not np.allclose(a, b)


def test_reproducible_across_registries():
    a = spawned_rng(123, "node0").random(16)
    b = spawned_rng(123, "node0").random(16)
    np.testing.assert_array_equal(a, b)


def test_adding_consumer_does_not_perturb_existing():
    draws1 = spawned_rng(5, "x").random(4)

    spawned_rng(5, "brand-new-consumer").random(100)  # interleaved new consumer
    draws2 = spawned_rng(5, "x").random(4)
    np.testing.assert_array_equal(draws1, draws2)


def test_different_seeds_differ():
    a = spawned_rng(1, "x").random(8)
    b = spawned_rng(2, "x").random(8)
    assert not np.allclose(a, b)


def test_spawn_is_deterministic_and_distinct():
    child_a1 = spawned_rng(9, "rep-1", "x").random(4)
    child_a2 = spawned_rng(9, "rep-1", "x").random(4)
    child_b = spawned_rng(9, "rep-2", "x").random(4)
    np.testing.assert_array_equal(child_a1, child_a2)
    assert not np.allclose(child_a1, child_b)
