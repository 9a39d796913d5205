"""A fixed host-speed probe, sampled next to every timed operation.

The reference host (2 vCPUs of a shared machine) changes speed by up to
2x in spells that last from seconds to minutes, and CPU time slows with
wall time, so a run's raw timings depend on when it ran more than on the
program.  The probe is fixed work of the same kinds the program does - a
pure-Python arithmetic loop, dict/set/``random`` work, many small numpy
calls and one large numpy sort - and it calls nothing of the program.
Its time is the geometric mean of the four kernels' times.  Over 576
summarize calls in one process, the log of a call's time (per job) tracked
the log of the probe around it with correlation 0.89 and slope 1.01.

The workloads take a :class:`Track` sample before and after every timed
operation, and every 0.25 s on the serving event loop while reads run.
They report each operation's time scaled to the reference speed,
``raw * REFERENCE_S / probe``, with ``probe`` interpolated at the
operation's midpoint (``stats.probe_at``).
"""

from __future__ import annotations

import math
import random
import time
from typing import List, Tuple

import numpy as np

_perf = time.perf_counter

#: The probe's time in the reference host's fast spells (about its median
#: over a 5-minute loop of summarize calls on an Intel Xeon, 2 vCPUs).
REFERENCE_S = 0.004

_SMALL = np.arange(64, dtype=np.int64) % 8
_WEIGHTS = np.linspace(0.0, 1.0, 64)
_LARGE = np.random.default_rng(0).random(150_000)


def _arithmetic() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def _containers() -> int:
    rng = random.Random(7)
    counts: dict = {}
    seen: set = set()
    order = []
    for i in range(12_000):
        key = rng.randrange(2000)
        counts[key] = counts.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
            order.append((key, i))
    order.sort()
    return len(order)


def _small_numpy() -> float:
    total = 0.0
    for _ in range(1500):
        total += float(np.bincount(_SMALL, weights=_WEIGHTS).sum())
    return total


def _large_numpy() -> float:
    return float(np.sort(_LARGE)[0])


KERNELS = (_arithmetic, _containers, _small_numpy, _large_numpy)


def probe() -> float:
    """Seconds of the fixed probe: the geometric mean of its kernels' times."""
    logs = 0.0
    for kernel in KERNELS:
        start = _perf()
        kernel()
        logs += math.log(_perf() - start)
    return math.exp(logs / len(KERNELS))


class Track:
    """Probe samples of one run, as (midpoint, probe seconds)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> float:
        start = _perf()
        value = probe()
        self.samples.append((0.5 * (start + _perf()), value))
        return value
