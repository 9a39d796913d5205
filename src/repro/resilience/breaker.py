"""Circuit breakers: closed / open / half-open with failure-rate windows.

A :class:`CircuitBreaker` watches a rolling window of outcomes for one
resource (a tenant's deadline budget).  While **closed** it admits
everything; once the window holds enough samples and the failure rate
crosses the threshold it **opens** and rejects for a cooldown; after
the cooldown it goes **half-open**, admitting a limited number of
probes — a probe success closes it, a probe failure re-opens it with a
fresh cooldown.

Rejection is always *explicit*: a tenant whose breaker is open is shed
with a typed :class:`~repro.errors.Overloaded` carrying the breaker's
``retry_after_ms`` hint, never a silently wrong (or silently dropped)
answer.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for one breaker family.

    ``window`` outcomes are kept; the breaker opens when at least
    ``min_samples`` of them exist and the failure fraction reaches
    ``failure_threshold``.  An open breaker rejects for ``open_ms``,
    then admits ``half_open_probes`` trial calls.
    """

    window: int = 20
    failure_threshold: float = 0.5
    min_samples: int = 5
    open_ms: float = 1000.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {self.failure_threshold}"
            )
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if self.open_ms < 0:
            raise ValueError(f"open_ms must be >= 0, got {self.open_ms}")
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """One breaker.  Not thread-safe; lives on the serving event loop.

    *clock* is injectable (defaults to :func:`time.monotonic`) so state
    transitions are testable without sleeping.
    """

    def __init__(
        self,
        config: "BreakerConfig | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._outcomes: "deque[bool]" = deque(maxlen=self.config.window)
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_left = 0
        self.opens = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing ``open`` → ``half_open`` on cooldown."""
        if self._state == OPEN and self._cooldown_over():
            self._transition(HALF_OPEN)
            self._probes_left = self.config.half_open_probes
        return self._state

    def _cooldown_over(self) -> bool:
        return (self._clock() - self._opened_at) * 1000.0 >= self.config.open_ms

    def _transition(self, state: str) -> None:
        self._state = state
        if state == OPEN:
            self._opened_at = self._clock()
            self.opens += 1

    def _failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    # ------------------------------------------------------------------
    # protocol: allow() before the call, record_*() after
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a call may proceed right now (consumes a half-open probe)."""
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and self._probes_left > 0:
            self._probes_left -= 1
            return True
        self.rejections += 1
        return False

    def release(self) -> None:
        """Give back the half-open probe of an admitted call whose end
        tells nothing about the resource (it never reached it, or failed
        for an unrelated reason)."""
        if self.state == HALF_OPEN:
            self._probes_left = min(self._probes_left + 1, self.config.half_open_probes)

    def record_success(self) -> None:
        """Note a successful call; a half-open success closes the breaker."""
        self._outcomes.append(True)
        if self._state == HALF_OPEN:
            self._outcomes.clear()
            self._transition(CLOSED)

    def record_failure(self) -> None:
        """Note a failed call; may open (or re-open) the breaker."""
        self._outcomes.append(False)
        if self._state == HALF_OPEN:
            self._transition(OPEN)
            return
        if (
            self._state == CLOSED
            and len(self._outcomes) >= self.config.min_samples
            and self._failure_rate() >= self.config.failure_threshold
        ):
            self._transition(OPEN)

    def retry_after_ms(self) -> float:
        """Remaining cooldown hint for rejected callers (0 when admitting)."""
        if self.state != OPEN:
            return 0.0
        elapsed_ms = (self._clock() - self._opened_at) * 1000.0
        return max(0.0, self.config.open_ms - elapsed_ms)

    def snapshot(self) -> dict:
        """State + counters for health endpoints and tests."""
        return {
            "state": self.state,
            "failure_rate": round(self._failure_rate(), 4),
            "samples": len(self._outcomes),
            "opens": self.opens,
            "rejections": self.rejections,
            "retry_after_ms": round(self.retry_after_ms(), 3),
        }
