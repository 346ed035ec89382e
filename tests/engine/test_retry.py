"""RetryPolicy semantics: budgets, deterministic backoff, timeouts, quarantine."""

import pickle

import numpy as np
import pytest

from repro.engine import FAIL_FAST, Job, JobError, JobOutcome, JobTimeoutError, RetryPolicy
from repro.engine.retry import execute_job
from repro.obs.metrics import MetricsRegistry, ensure_core_metrics, use_registry
from repro.simkit.rng import spawn_seedseq


def _run(job, policy, experiment="toy", seed=7, sleeps=None):
    seed_seq = spawn_seedseq(seed, experiment, job.name)
    registry = ensure_core_metrics(MetricsRegistry())
    with use_registry(registry):
        outcome = execute_job(
            experiment,
            seed,
            job,
            seed_seq,
            policy,
            sleep=(sleeps.append if sleeps is not None else lambda s: None),
        )
    return outcome, registry


def _value(params, seed_seq):
    return float(np.random.default_rng(seed_seq).random())


def _flaky_factory(fail_first_n):
    calls = {"n": 0}

    def flaky(params, seed_seq):
        calls["n"] += 1
        if calls["n"] <= fail_first_n:
            raise RuntimeError(f"transient #{calls['n']}")
        return _value(params, seed_seq)

    return flaky


class TestRetryPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):  # nan <= 0 is False; join(nan) would raise per attempt
            RetryPolicy(timeout_s=float("nan"))

    def test_fail_fast_is_single_attempt_no_quarantine(self):
        assert FAIL_FAST.max_attempts == 1
        assert not FAIL_FAST.quarantine


class TestBackoff:
    def test_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=3.0,
                             jitter_frac=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_s(1, rng) == 1.0
        assert policy.backoff_s(2, rng) == 2.0
        assert policy.backoff_s(3, rng) == 3.0  # capped, not 4.0
        assert policy.backoff_s(9, rng) == 3.0

    def test_jitter_is_deterministic_for_a_seeded_stream(self):
        policy = RetryPolicy(backoff_base_s=0.5, jitter_frac=0.5)
        a = [policy.backoff_s(k, np.random.default_rng(42)) for k in (1, 2, 3)]
        b = [policy.backoff_s(k, np.random.default_rng(42)) for k in (1, 2, 3)]
        assert a == b
        base = 0.5
        assert base <= a[0] <= base * 1.5

    def test_rejects_zero_failures(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0, np.random.default_rng(0))


class TestExecuteJob:
    def test_success_first_try(self):
        outcome, registry = _run(Job("j", _value), RetryPolicy())
        assert outcome.ok and outcome.attempts == 1 and not outcome.timed_out
        assert registry.counter("engine_job_attempts_total").value == 1
        assert registry.counter("engine_job_retries_total").value == 0

    def test_flaky_job_succeeds_on_retry_with_identical_value(self):
        clean, _ = _run(Job("j", _value), RetryPolicy())
        sleeps = []
        flaky, registry = _run(
            Job("j", _flaky_factory(2)), RetryPolicy(max_attempts=3, backoff_base_s=0.01),
            sleeps=sleeps,
        )
        assert flaky.ok and flaky.attempts == 3
        # the retried job drew from the same spawned stream: identical output
        assert flaky.value == clean.value
        assert registry.counter("engine_job_retries_total").value == 2
        assert len(sleeps) == 2 and sleeps[1] > sleeps[0] > 0

    def test_backoff_sleeps_are_reproducible_across_runs(self):
        sleeps_a, sleeps_b = [], []
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.2)
        _run(Job("j", _flaky_factory(2)), policy, sleeps=sleeps_a)
        _run(Job("j", _flaky_factory(2)), policy, sleeps=sleeps_b)
        assert sleeps_a == sleeps_b

    def test_exhausted_budget_quarantines(self):
        outcome, registry = _run(Job("j", _flaky_factory(99)), RetryPolicy(max_attempts=2))
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "transient" in outcome.error
        assert registry.counter("engine_jobs_quarantined_total").value == 1

    def test_exhausted_budget_raises_without_quarantine(self):
        policy = RetryPolicy(max_attempts=2, quarantine=False)
        with pytest.raises(JobError, match="'j' of experiment 'toy'"):
            _run(Job("j", _flaky_factory(99)), policy)

    def test_timeout_fires_and_counts(self):
        def sleeper(params, seed_seq):
            import time

            time.sleep(5.0)

        policy = RetryPolicy(max_attempts=2, timeout_s=0.05, backoff_base_s=0.0, jitter_frac=0.0)
        outcome, registry = _run(Job("slow", sleeper), policy)
        assert not outcome.ok and outcome.timed_out
        assert "timed out after 0.05s" in outcome.error
        assert registry.counter("engine_job_timeouts_total").value == 2

    def test_timeout_unused_when_job_is_fast(self):
        outcome, _ = _run(Job("j", _value), RetryPolicy(timeout_s=30.0))
        assert outcome.ok and not outcome.timed_out


class TestErrorPickling:
    def test_job_error_round_trips(self):
        err = JobError("exp", "job-1", RuntimeError("boom"))
        clone = pickle.loads(pickle.dumps(err))
        assert clone.experiment == "exp" and clone.job_name == "job-1"
        assert "boom" in clone.cause

    def test_timeout_error_round_trips(self):
        err = JobTimeoutError("exp", "job-1", 2.5)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, JobTimeoutError)
        assert clone.timeout_s == 2.5 and clone.job_name == "job-1"

    def test_outcome_round_trips(self):
        outcome = JobOutcome(name="j", ok=False, error="x", attempts=3, timed_out=True)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone == outcome
