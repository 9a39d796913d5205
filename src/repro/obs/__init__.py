"""End-to-end observability: metrics, request tracing, profiling hooks.

Three layers, all optional and all off the hot path when unused:

* :mod:`repro.obs.registry` — lock-cheap counters, gauges, and
  mergeable log-bucket histograms, with Prometheus-text and JSON
  exposition (:class:`MetricsRegistry`, :func:`get_registry`).
* :mod:`repro.obs.trace` — ``trace_id``/span request tracing
  (:class:`Tracer`); ids are minted at the serving edge and never cross
  the fork boundary: the parent records each batch's worker-side
  ``compute`` span under the request's id, from the reply's worker pid
  and compute time.
* :mod:`repro.obs.profile` — :func:`probe` phase timers threaded
  through the merge engines, the streaming swap path, and the store
  load/spill path, plus the query solvers' telemetry; no-ops unless
  :func:`enable_profiling` ran or inside :func:`profiling_into`.

:class:`ObsConfig` bundles a registry and a tracer and is what the
serving stack takes: pass one to
:class:`~repro.serving.server.QueryServer`,
:class:`~repro.serving.tenancy.TenantHost`, or
:class:`~repro.serving.net.NetServer` and metrics/tracing light up end
to end.  ``None`` (the default) traces nothing, and a query server then
keeps its ledger in a private registry.  With a registry, each served
batch records its probes into a registry of its own and ships that
registry's snapshot with its reply, which the server merges in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.obs.http import MetricsHTTPServer
from repro.obs.profile import (
    count,
    disable_profiling,
    enable_profiling,
    observe,
    probe,
    profiling_enabled,
    profiling_into,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_SIZE_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_spaced_bounds,
    quantile_from_sample,
    samples_for,
)
from repro.obs.trace import Span, TraceHandle, Tracer, new_trace_id, slow_log

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SIZE_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "ObsConfig",
    "Span",
    "TraceHandle",
    "Tracer",
    "count",
    "disable_profiling",
    "enable_profiling",
    "get_registry",
    "log_spaced_bounds",
    "new_trace_id",
    "observe",
    "probe",
    "profiling_enabled",
    "profiling_into",
    "quantile_from_sample",
    "samples_for",
    "slow_log",
]


@dataclass
class ObsConfig:
    """One knob for the serving stack: which registry/tracer to record into.

    ``registry=None`` keeps a query server's metrics in a private
    registry (and disables the net tier's), ``tracer=None`` disables
    tracing; ``tenant`` labels every metric the holder records (the
    multi-tenant host stamps each tenant's server with its name).  With
    a ``registry``, every served batch, inline or on a lane, records its
    probes (store loads, solver telemetry) into a registry of its own,
    and the server merges that batch's snapshot into this one.
    """

    registry: "MetricsRegistry | None" = None
    tracer: "Tracer | None" = None
    tenant: str = ""

    @classmethod
    def default(cls, **kwargs: Any) -> "ObsConfig":
        """An ObsConfig over the process-wide registry (no tracer)."""
        kwargs.setdefault("registry", get_registry())
        return cls(**kwargs)

    def for_tenant(self, tenant: str) -> "ObsConfig":
        """The same sinks, labeled for one tenant."""
        return replace(self, tenant=tenant)

    @property
    def enabled(self) -> bool:
        return self.registry is not None or self.tracer is not None

