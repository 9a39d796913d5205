"""The benchmark's own arithmetic, free of any I/O or timing.

Every function here works on plain sequences so the unit tests in
``perfbench/tests`` can pin it on synthetic inputs:

* :func:`tail_percentile` - the highest percentile (up to a wanted one)
  that still has at least ten samples beyond it;
* :func:`open_loop_latencies` / :func:`lateness` - latency timed from
  each request's due time, and how late the generator sent it;
* :func:`backlog_series` / :func:`backlog_growing` - whether an open-loop
  rung left a growing queue behind;
* :func:`goodput` - the highest rung that met the latency limit;
* :func:`union_length` / :func:`coverage` - how much of an interval a
  set of spans covers (a span's self time is its duration minus the
  union of its children, see ``layers.SpanIndex``);
* :func:`probe_at` / :func:`at_reference` - a timing scaled to the
  reference host speed by the host-speed probe sampled around it (see
  ``hostspeed``).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule), pct in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Tail(NamedTuple):
    value: float
    pct: float
    beyond: int
    count: int


def tail_percentile(
    values: Sequence[float], want: float = 99.0, min_beyond: int = MIN_BEYOND
) -> Optional[Tail]:
    """The highest percentile <= *want* with >= *min_beyond* samples above it.

    Returns ``None`` when the sample is too small for any percentile at
    or above the median to have that many samples beyond it.
    """
    n = len(values)
    if n < 2 * min_beyond + 1:
        return None
    ordered = sorted(values)
    value = percentile(ordered, want)
    beyond = sum(1 for v in ordered if v > value)
    if beyond >= min_beyond:
        return Tail(value, want, beyond, n)
    # Rank n-1-min_beyond leaves exactly min_beyond samples above it.
    pct = 100.0 * (n - 1 - min_beyond) / (n - 1)
    value = ordered[n - 1 - min_beyond]
    return Tail(value, pct, sum(1 for v in ordered if v > value), n)


def open_loop_latencies(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Per-request latency from its due time (a late send counts against it)."""
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [d1 - d0 for d0, d1 in zip(due, done)]


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each request (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent must pair up")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def backlog_series(sent: Sequence[float], done: Sequence[float]) -> List[int]:
    """Requests outstanding at each send instant (sent so far minus done)."""
    finished = sorted(done)
    out: List[int] = []
    j = 0
    for i, at in enumerate(sorted(sent)):
        while j < len(finished) and finished[j] <= at:
            j += 1
        out.append(i + 1 - j)
    return out


def backlog_growing(series: Sequence[int], rate: float) -> bool:
    """Whether a rung's backlog grew instead of staying bounded.

    The threshold is a quarter second of arrivals (at least 10 requests):
    the backlog must end above it *and* its second-half mean must exceed
    its first-half mean by half of it.  A stable rung jitters by a few
    requests; an overloaded one grows by (rate - capacity) per second.
    """
    if len(series) < 4:
        return False
    threshold = max(10.0, 0.25 * rate)
    half = len(series) // 2
    first = sum(series[:half]) / half
    second = sum(series[half:]) / (len(series) - half)
    return series[-1] >= threshold and second - first > threshold / 2.0


class Rung(NamedTuple):
    rate: float
    p99_ms: float
    growing: bool
    failed: int


def goodput(rungs: Iterable[Rung], limit_ms: float) -> float:
    """The highest rate whose p99 met *limit_ms*, with no growing backlog
    and no failures; ``0.0`` when no rung passed."""
    passing = [
        r.rate for r in rungs if r.p99_ms <= limit_ms and not r.growing and r.failed == 0
    ]
    return max(passing) if passing else 0.0


def union_length(
    intervals: Iterable[Tuple[float, float]],
    lo: float = -math.inf,
    hi: float = math.inf,
) -> float:
    """Total length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def coverage(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Share of ``[start, end]`` covered by the union of *intervals*."""
    if end <= start:
        return 0.0
    return union_length(intervals, start, end) / (end - start)


def probe_at(samples: Sequence[Tuple[float, float]], at: float) -> float:
    """The probe's seconds at time *at*, from (time, seconds) *samples*
    sorted by time: geometric interpolation between the samples on either
    side, or the nearest sample outside their range."""
    if not samples:
        raise ValueError("no probe samples")
    i = bisect.bisect_left([t for t, _ in samples], at)
    if i == 0:
        return samples[0][1]
    if i == len(samples):
        return samples[-1][1]
    (t0, p0), (t1, p1) = samples[i - 1], samples[i]
    w = (at - t0) / (t1 - t0)
    return p0 ** (1.0 - w) * p1 ** w


def at_reference(seconds: float, probe_s: float, reference_s: float) -> float:
    """*seconds* measured while the probe took *probe_s*, scaled to the
    speed at which it takes *reference_s*."""
    return seconds * reference_s / probe_s
