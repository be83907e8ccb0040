"""Unified retry policy (repro.service.retry).

The policy is shared by the hardened task runner and the service
supervisor, so its classification and backoff contracts are pinned
here once: which failures are worth retrying, that backoff grows
exponentially under a cap, and that jitter is deterministic (same
task, same attempt, same seed -> same delay — bit-identical reruns
are the chaos harness's whole proof strategy).
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.service.retry import (
    PERMANENT,
    RETRYABLE,
    RetryPolicy,
    classify_exception,
    classify_failure,
)


class TestClassification:
    @pytest.mark.parametrize("message", [
        "worker died mid-task (exit code -9)",
        "wall-clock timeout after 120.0s",
        "result delivery failed: inbox unreachable",
        "result store write failed for job j000001 under /tmp/x",
    ])
    def test_infrastructure_failures_are_retryable(self, message):
        assert classify_failure(message) == RETRYABLE

    @pytest.mark.parametrize("error", [
        OSError(28, "No space left on device"),
        TimeoutError("deadline exceeded"),
        BrokenProcessPool("a worker terminated abruptly"),
    ], ids=lambda error: type(error).__name__)
    def test_infra_exceptions_are_retryable(self, error):
        assert classify_exception(error) == RETRYABLE

    @pytest.mark.parametrize("message", [
        "ValueError: boom on 1",
        "KeyError: 'width'",
        "ServiceError: unknown job kind 'x'",
        "ZeroDivisionError: division by zero",
        "something with no exception prefix at all",
        # a marker counts only where the runner puts it: at the start
        "ValueError: the worker died twice before",
    ])
    def test_task_errors_are_permanent(self, message):
        assert classify_failure(message) == PERMANENT

    def test_exception_classification_walks_the_mro(self):
        # FileNotFoundError subclasses OSError: retryable via the MRO
        # even though its own name is not in the table.
        assert classify_exception(FileNotFoundError("gone")) == RETRYABLE
        assert classify_exception(ValueError("bad")) == PERMANENT


class TestBackoff:
    def test_delay_doubles_under_the_cap(self):
        policy = RetryPolicy(backoff=1.0, backoff_cap=100.0, seed=0)
        d1 = policy.delay("t", 1)
        d2 = policy.delay("t", 2)
        d3 = policy.delay("t", 3)
        # Jitter spans [0.5x, 1.5x), so consecutive delays cannot be
        # compared directly — compare against the jitter-free base.
        assert 0.5 <= d1 < 1.5
        assert 1.0 <= d2 < 3.0
        assert 2.0 <= d3 < 6.0

    def test_delay_is_capped(self):
        policy = RetryPolicy(backoff=1.0, backoff_cap=2.0)
        assert policy.delay("t", 10) <= 2.0

    def test_jitter_is_deterministic_and_process_salt_free(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay("task-a", 2) == policy.delay("task-a", 2)
        # Different tasks/attempts de-synchronize (thundering herd).
        assert policy.delay("task-a", 2) != policy.delay("task-b", 2)
        assert policy.jitter_fraction("x", 1) != policy.jitter_fraction(
            "x", 2
        )

    def test_seed_changes_the_schedule(self):
        assert RetryPolicy(seed=0).delay("t", 1) != RetryPolicy(
            seed=1
        ).delay("t", 1)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff": -1.0},
        {"backoff_cap": -0.5},
        {"deadline": 0.0},
    ])
    def test_invalid_policies_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)
