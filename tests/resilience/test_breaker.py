"""Units for the circuit-breaker state machine."""

from __future__ import annotations

import pytest

from repro.resilience import BreakerConfig, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


@pytest.fixture
def clock():
    return FakeClock()


def _breaker(clock, **overrides) -> CircuitBreaker:
    defaults = dict(window=10, failure_threshold=0.5, min_samples=4, open_ms=1000.0)
    defaults.update(overrides)
    return CircuitBreaker(BreakerConfig(**defaults), clock=clock)


class TestCircuitBreaker:
    def test_stays_closed_below_min_samples(self, clock):
        breaker = _breaker(clock)
        for _ in range(3):
            breaker.record_failure()  # rate 1.0 but only 3 samples
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_at_failure_threshold(self, clock):
        breaker = _breaker(clock)
        for _ in range(2):
            breaker.record_success()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1
        assert breaker.rejections == 1

    def test_retry_after_counts_down_the_cooldown(self, clock):
        breaker = _breaker(clock)
        assert breaker.retry_after_ms() == 0.0
        for _ in range(4):
            breaker.record_failure()
        assert breaker.retry_after_ms() == pytest.approx(1000.0)
        clock.advance_ms(400.0)
        assert breaker.retry_after_ms() == pytest.approx(600.0)

    def test_half_open_probe_success_closes(self, clock):
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance_ms(1000.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # probes exhausted
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_release_gives_back_an_unused_probe(self, clock):
        breaker = _breaker(clock)
        breaker.release()  # closed: nothing to give back
        for _ in range(4):
            breaker.record_failure()
        clock.advance_ms(1000.0)
        assert breaker.allow()
        breaker.release()  # the admitted call was cancelled before it ran
        assert breaker.allow()  # the probe came back
        breaker.release()
        breaker.release()  # never more probes than the config grants
        assert breaker.allow() and not breaker.allow()
        assert breaker.rejections == 1
        assert breaker.state == "half_open"

    def test_half_open_probe_failure_reopens_with_fresh_cooldown(self, clock):
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance_ms(1000.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.retry_after_ms() == pytest.approx(1000.0)

    def test_window_forgets_old_outcomes(self, clock):
        breaker = _breaker(clock, window=4)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == "open"
        clock.advance_ms(1000.0)
        breaker.allow()
        breaker.record_success()  # closes, clears the window
        for _ in range(4):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # 1/4 in-window < 0.5

    def test_snapshot_reports_state_and_counters(self, clock):
        breaker = _breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        breaker.allow()
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["failure_rate"] == 1.0
        assert snap["samples"] == 4
        assert snap["opens"] == 1
        assert snap["rejections"] == 1
        assert snap["retry_after_ms"] == pytest.approx(1000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
            {"min_samples": 0},
            {"open_ms": -1.0},
            {"half_open_probes": 0},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)
