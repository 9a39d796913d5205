"""Hot-path profiling hooks: phase timers that cost ~nothing when off.

The summarize merge loop, the streaming swap path, and the store
load/spill path are instrumented with :func:`probe` timers::

    with probe("merge.fused_join"):
        ... the batch kernel's join pass ...

Profiling is **off by default**: a disabled :func:`probe` returns a
shared no-op context manager — one dict read and no timer calls — so
the instrumentation can live inside kernels without a measurable tax
(the oracle-equivalence suites run with it in place).  Enabled, each
probe records into ``repro_phase_seconds{phase=...}`` on the chosen
registry (default: the process-wide one), whose histogram count doubles
as a call counter.  :func:`count` and :func:`observe` record event
counters and value histograms (e.g. the query solvers' iteration
counts) under the same switch.

Serving batches carry the switch in the batch task: a server given an
:class:`~repro.obs.ObsConfig` with a registry sets the task's
``profile`` field, and :func:`~repro.serving.blueprint.serve_batch_task`
runs such a batch under :func:`profiling_into` a registry of its own,
inline and on a lane alike, so its store loads and solver telemetry
ship back with the reply.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Sequence

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "count",
    "disable_profiling",
    "enable_profiling",
    "observe",
    "probe",
    "profiling_enabled",
    "profiling_into",
]

#: Phase-timer buckets: 1 µs .. ~134 s, ×4 per bucket (phases span six
#: decades — a store mmap is microseconds, a full re-summarize seconds).
PHASE_BOUNDS = tuple(1e-6 * 4.0**i for i in range(14))

_state: "Dict[str, object]" = {"enabled": False, "registry": None}


class _NoopProbe:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopProbe":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP = _NoopProbe()


class _Probe:
    __slots__ = ("phase", "_t0")

    def __init__(self, phase: str):
        self.phase = phase
        self._t0 = 0.0

    def __enter__(self) -> "_Probe":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        registry: MetricsRegistry = _state["registry"] or get_registry()  # type: ignore[assignment]
        registry.histogram(
            "repro_phase_seconds",
            "Instrumented hot-path phase timings",
            bounds=PHASE_BOUNDS,
            phase=self.phase,
        ).observe(time.perf_counter() - self._t0)


def enable_profiling(registry: "MetricsRegistry | None" = None) -> None:
    """Turn the probes on, recording into *registry* (default: process-wide)."""
    _state["registry"] = registry
    _state["enabled"] = True


def disable_profiling() -> None:
    """Turn the probes back into no-ops."""
    _state["enabled"] = False
    _state["registry"] = None


@contextmanager
def profiling_into(registry: MetricsRegistry) -> Iterator[None]:
    """Record every probe into *registry* for the block, then restore the
    switch as it was (on or off, and its registry)."""
    previous = dict(_state)
    enable_profiling(registry)
    try:
        yield
    finally:
        _state.update(previous)


def profiling_enabled() -> bool:
    """Whether probes currently record."""
    return bool(_state["enabled"])


def probe(phase: str):
    """A context manager timing one *phase* (no-op unless profiling is on)."""
    if not _state["enabled"]:
        return _NOOP
    return _Probe(phase)


def count(name: str, amount: float = 1.0, **labels: str) -> None:
    """Bump a profiling counter (no-op unless profiling is on)."""
    if not _state["enabled"]:
        return
    registry: MetricsRegistry = _state["registry"] or get_registry()  # type: ignore[assignment]
    registry.counter(name, "Instrumented hot-path event counter", **labels).inc(amount)


def observe(name: str, value: float, *, bounds: Sequence[float], **labels: str) -> None:
    """Record *value* into a profiling histogram (no-op unless profiling is on).

    *bounds* fixes the family's buckets on first touch, like
    :meth:`~repro.obs.registry.MetricsRegistry.histogram`.
    """
    if not _state["enabled"]:
        return
    registry: MetricsRegistry = _state["registry"] or get_registry()  # type: ignore[assignment]
    registry.histogram(
        name, "Instrumented hot-path distribution", bounds=bounds, **labels
    ).observe(value)
