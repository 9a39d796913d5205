"""Units for the process-crossing primitives: Deadline and RetryPolicy."""

from __future__ import annotations

import math
import time

import pytest

from repro.resilience import Deadline, RetryPolicy
from repro.resilience.policy import deadline_expired
from repro.serving.server import DEFAULT_RETRY_POLICY


class TestDeadline:
    def test_never_is_unbounded_and_never_expires(self):
        deadline = Deadline.never()
        assert deadline.unbounded
        assert not deadline.expired()
        assert deadline.remaining_ms() == math.inf
        assert deadline.expires_at == math.inf

    @pytest.mark.parametrize("budget", [None, 0, -5.0, math.inf])
    def test_after_ms_degenerate_budgets_mean_never(self, budget):
        assert Deadline.after_ms(budget).unbounded

    def test_after_ms_expires_after_the_budget(self):
        deadline = Deadline.after_ms(10.0)
        assert not deadline.unbounded
        assert 0.0 < deadline.remaining_ms() <= 10.0
        time.sleep(0.02)
        assert deadline.expired()
        assert deadline.remaining_ms() == 0.0

    def test_tighten_keeps_the_stricter_side(self):
        loose = Deadline.after_ms(60_000.0)
        assert loose.tighten(5.0).expires_at < loose.expires_at
        assert loose.tighten(None) is loose  # unbounded hint cannot extend
        tight = Deadline.after_ms(1.0)
        assert tight.tighten(60_000.0) is tight

    def test_raw_expiry_travels_without_the_object(self):
        # What batch payloads actually carry: the float, or None.
        assert not deadline_expired(None)
        assert not deadline_expired(time.monotonic() + 60.0)
        assert deadline_expired(time.monotonic() - 0.001)


class TestRetryPolicy:
    def test_should_retry_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retries == 2
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_single_attempt_policy_never_retries(self):
        assert not RetryPolicy(max_attempts=1).should_retry(1)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_ms=10.0, cap_ms=35.0, multiplier=2.0, jitter=0.0)
        assert policy.backoff_ms(1) == 10.0
        assert policy.backoff_ms(2) == 20.0
        assert policy.backoff_ms(3) == 35.0  # capped, not 40
        assert policy.backoff_ms(0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_ms=100.0, cap_ms=1000.0, jitter=0.5, seed=7)
        delays = [policy.backoff_ms(2, key="m0") for _ in range(3)]
        assert len(set(delays)) == 1  # same (seed, key, attempt) -> same delay
        raw = 200.0
        assert raw * 0.5 <= delays[0] <= raw * 1.5
        # Different keys and seeds decorrelate.
        assert policy.backoff_ms(2, key="m1") != delays[0]
        assert policy.with_seed(8).backoff_ms(2, key="m0") != delays[0]

    def test_server_default_is_two_immediate_retries(self):
        assert DEFAULT_RETRY_POLICY == RetryPolicy(max_attempts=3, base_ms=0.0, jitter=0.0)
        assert DEFAULT_RETRY_POLICY.should_retry(2)
        assert not DEFAULT_RETRY_POLICY.should_retry(3)
        assert DEFAULT_RETRY_POLICY.backoff_ms(1, key="m0") == 0.0
        assert DEFAULT_RETRY_POLICY.backoff_ms(2, key="m0") == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_ms": -1.0},
            {"cap_ms": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_parse_round_trips_a_cli_spec(self):
        policy = RetryPolicy.parse("attempts=4, base_ms=5, cap_ms=100, jitter=0.2, seed=3")
        assert policy == RetryPolicy(
            max_attempts=4, base_ms=5.0, cap_ms=100.0, jitter=0.2, seed=3
        )

    def test_parse_none_off_and_empty(self):
        assert RetryPolicy.parse(None) is None
        assert RetryPolicy.parse("  ") is None
        assert RetryPolicy.parse("none") == RetryPolicy(max_attempts=1)
        assert RetryPolicy.parse("off") == RetryPolicy(max_attempts=1)

    @pytest.mark.parametrize("spec", ["bogus", "attempts", "color=red", "attempts=x"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            RetryPolicy.parse(spec)
