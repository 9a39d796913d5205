"""Multi-tenant hosting: several clusters served by one process.

The ROADMAP's serving tier must host *several* clusters in one server —
one per **tenant** — with tenant → cluster routing, per-tenant admission
quotas, and a per-tenant ledger.  :class:`TenantHost` is that layer:

* one shared :class:`~repro.parallel.lanes.LaneExecutor` serves every
  tenant (each tenant's session reaches a lane's worker once, with its
  first batch there, and workers cache attached clusters per session
  token, so co-hosted tenants never share or clobber each other's
  machine rebuilds);
* each tenant gets its **own** :class:`~repro.serving.server.QueryServer`
  — its own admission queue, micro-batcher, hedging policy, and
  :class:`~repro.serving.server.ServingStats` ledger — with a distinct
  ``lane_offset`` so tenants spread over the lanes instead of all
  pinning their machine 0 to lane 0;
* :meth:`TenantHost.submit` routes ``(tenant, node, query_type)`` and
  enforces the tenant's ``max_inflight`` admission quota on top of the
  server's bounded queue;
* :meth:`TenantHost.evict` removes a tenant mid-flight: either draining
  (every admitted request still answers) or cancelling (unresolved
  futures are cancelled, the batch results are discarded on arrival),
  and in both cases the tenant's ledger balances
  ``admitted == answered + failed + cancelled + shed`` afterwards.

The host books its own per-tenant events (``inflight``, quota and
breaker rejections) in the tenant server's ledger, so one
:class:`~repro.serving.server.ServingStats` view carries every field of
a tenant's ``stats`` reply.

Isolation contract: a tenant's answers are byte-identical to *its own*
``cluster.answer`` — never another tenant's — for any interleaving of
tenants, faults, hedges, and evictions.  The chaos suite pins this.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.distributed.cluster import DistributedCluster
from repro.errors import DeadlineExceeded, Overloaded, TenantError
from repro.obs import ObsConfig, TraceHandle
from repro.parallel.lanes import LaneExecutor
from repro.resilience.breaker import HALF_OPEN, BreakerConfig, CircuitBreaker
from repro.resilience.policy import Deadline, RetryPolicy
from repro.serving.blueprint import release_session_task
from repro.serving.server import STATS_FIELDS, QueryServer, ServingStats


@dataclass
class TenantConfig:
    """Per-tenant serving knobs (defaults match a bare ``QueryServer``).

    ``max_inflight`` is the admission **quota**: the number of requests a
    tenant may have in service at once.  ``None`` means unbounded (the
    server's ``max_pending`` queue bound still applies); exceeding it
    raises :class:`~repro.errors.TenantError` immediately — quota
    rejections shed load, they do not backpressure.

    ``max_batch`` / ``max_wait_ms`` shape the tenant server's
    work-conserving dispatch: a machine's batch goes to an idle lane at
    once, and behind a busy lane it waits at most ``max_wait_ms`` (a
    cap) or until ``max_batch`` requests have gathered.

    ``deadline_ms`` / ``retry_policy`` flow through to the tenant's
    server (deadline budgets minted at submit; batch re-dispatch after a
    worker death, ``None`` meaning
    :data:`~repro.serving.server.DEFAULT_RETRY_POLICY`).  ``breaker``
    arms a per-tenant **deadline-burn
    breaker**: deadline sheds count as failures, answers as successes,
    and while the breaker is open the tenant's submissions are shed at
    admission with :class:`~repro.errors.Overloaded` (carrying a
    ``retry_after_ms`` hint) instead of burning more budget.
    """

    max_pending: int = 1024
    max_inflight: "int | None" = None
    max_batch: int = 16
    max_wait_ms: float = 2.0
    hedge_ms: "float | None" = None
    retry_policy: "RetryPolicy | None" = None
    deadline_ms: "float | None" = None
    breaker: "BreakerConfig | None" = None


@dataclass
class _Tenant:
    name: str
    server: QueryServer
    config: TenantConfig
    lane_offset: int = 0
    breaker: "CircuitBreaker | None" = None


class TenantHost:
    """Route queries to per-tenant servers over one shared lane pool.

    Parameters
    ----------
    workers:
        Lane count of the shared executor (``1`` = inline reference
        path; every tenant then answers in the event loop).  A lane
        whose worker dies is re-spawned at once (see
        :mod:`repro.parallel.lanes`).
    chaos:
        Optional fault-injection spec applied to every tenant's batches
        (see :func:`~repro.serving.blueprint.serve_batch_task`).
    obs:
        Optional :class:`~repro.obs.ObsConfig`.  Each tenant's server
        gets a copy labeled with the tenant's name
        (``ObsConfig.for_tenant``), so every metric family carries a
        ``tenant`` label and traces note which tenant they served.

    Usage::

        async with TenantHost(workers=4) as host:
            await host.add_tenant("acme", acme_cluster)
            await host.add_tenant("globex", globex_cluster)
            answer = await host.submit("acme", node, "rwr")
    """

    def __init__(
        self,
        *,
        workers: "int | None" = 1,
        chaos: "Dict | None" = None,
        obs: "ObsConfig | None" = None,
    ):
        self._workers = workers
        self._chaos = chaos
        self._obs = obs
        self._executor: "LaneExecutor | None" = None
        self._tenants: "Dict[str, _Tenant]" = {}
        self._offsets = 0
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the shared lanes are up."""
        return self._started

    @property
    def executor(self) -> "LaneExecutor | None":
        """The shared lane executor (``None`` before :meth:`start`)."""
        return self._executor

    async def start(self) -> "TenantHost":
        """Spawn the shared lanes; tenants are added afterwards."""
        if self._started:
            raise TenantError("tenant host already started")
        self._executor = LaneExecutor(self._workers).start()
        self._started = True
        return self

    async def close(self) -> None:
        """Evict every tenant (draining) and release the shared lanes."""
        if not self._started:
            return
        try:
            for name in list(self._tenants):
                await self.evict(name, drain=True)
        finally:
            self._started = False
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None

    async def __aenter__(self) -> "TenantHost":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # tenant directory
    # ------------------------------------------------------------------
    def tenants(self) -> List[str]:
        """Registered tenant names, registration-ordered."""
        return list(self._tenants)

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise TenantError(
                f"unknown tenant {name!r}; registered: {', '.join(self._tenants) or '(none)'}"
            )
        return tenant

    def server(self, name: str) -> QueryServer:
        """The tenant's dedicated :class:`QueryServer` (routing target)."""
        return self._tenant(name).server

    def cluster(self, name: str) -> DistributedCluster:
        """The cluster a tenant's queries are answered against."""
        return self._tenant(name).server.cluster

    async def add_tenant(
        self,
        name: str,
        cluster: DistributedCluster,
        *,
        config: "TenantConfig | None" = None,
    ) -> QueryServer:
        """Register a tenant and start serving its cluster.

        Tenant names are unique; re-registering one raises
        :class:`~repro.errors.TenantError` (evict first).  Returns the
        tenant's server so callers can reach its stats and hot-swap
        surface directly.
        """
        if not self._started:
            raise TenantError("start the tenant host before adding tenants")
        if not name or not isinstance(name, str):
            raise TenantError(f"tenant name must be a non-empty string, got {name!r}")
        if name in self._tenants:
            raise TenantError(f"tenant {name!r} is already registered")
        config = config or TenantConfig()
        lane_offset = self._offsets
        self._offsets += 1
        server = QueryServer(
            cluster,
            executor=self._executor,
            lane_offset=lane_offset,
            max_pending=config.max_pending,
            max_batch=config.max_batch,
            max_wait_ms=config.max_wait_ms,
            hedge_ms=config.hedge_ms,
            retry_policy=config.retry_policy,
            deadline_ms=config.deadline_ms,
            chaos=self._chaos,
            obs=(self._obs or ObsConfig()).for_tenant(name),
        )
        await server.start()
        breaker = None
        if config.breaker is not None:
            breaker = CircuitBreaker(config.breaker)
        self._tenants[name] = _Tenant(
            name=name,
            server=server,
            config=config,
            lane_offset=lane_offset,
            breaker=breaker,
        )
        return server

    async def evict(self, name: str, *, drain: bool = True) -> ServingStats:
        """Remove a tenant; returns its final (balanced) ledger.

        ``drain=True`` answers everything already admitted before the
        teardown; ``drain=False`` cancels every unresolved request first
        — clients see ``CancelledError``, in-flight batch results are
        discarded on arrival, and the ledger still balances
        (``admitted == answered + failed + cancelled + shed``).  Worker-side
        caches for the tenant's session are evicted on every lane.
        """
        tenant = self._tenant(name)
        server = tenant.server
        blueprint = server._blueprint
        if not drain:
            server.cancel_pending()
        await server.stop()
        del self._tenants[name]
        # Long-lived lane workers would otherwise keep the evicted
        # tenant's rebuilt machines and store files until pool death.
        if blueprint is not None and self._executor is not None and not self._executor.inline:
            futures = [
                self._executor.submit(release_session_task, blueprint.token, lane=lane)
                for lane in range(self._executor.lanes)
            ]
            await asyncio.gather(
                *(asyncio.wrap_future(f) for f in futures), return_exceptions=True
            )
            self._executor.forget(blueprint.slots())
        return server.stats

    # ------------------------------------------------------------------
    # routed serving
    # ------------------------------------------------------------------
    async def submit(
        self,
        name: str,
        node: int,
        query_type: str,
        *,
        trace: "TraceHandle | None" = None,
        deadline: "Deadline | None" = None,
    ) -> np.ndarray:
        """Answer one query for one tenant (quota-checked, backpressured).

        Raises :class:`~repro.errors.TenantError` for unknown tenants
        and quota violations, and :class:`~repro.errors.Overloaded`
        (with a ``retry_after_ms`` hint) while the tenant's deadline-burn
        breaker is open; everything else matches the tenant server's
        ``submit`` surface.  *trace* is passed through to the tenant
        server, so a network-ingress-minted trace follows the request
        through this tenant's queue, lanes, and workers; *deadline*
        likewise (the ingress-minted budget).
        """
        tenant = self._tenant(name)
        server = tenant.server
        quota = tenant.config.max_inflight
        if quota is not None and server.stats.inflight >= quota:
            server.book("quota_rejections")
            raise TenantError(
                f"tenant {name!r} admission quota exceeded "
                f"({server.stats.inflight}/{quota} in flight); retry or back off"
            )
        if tenant.breaker is not None and not tenant.breaker.allow():
            # Open deadline-burn breaker: shed at admission with a typed,
            # hinted error instead of queueing work that will expire.
            server.book("breaker_rejections")
            raise Overloaded(
                f"tenant {name!r} is shedding load (deadline-burn breaker open)",
                retry_after_ms=tenant.breaker.retry_after_ms(),
            )
        # An admitted call in a half-open breaker holds its probe.
        probe = tenant.breaker is not None and tenant.breaker.state == HALF_OPEN
        server.book("inflight")
        try:
            answer = await server.submit(node, query_type, trace=trace, deadline=deadline)
        except DeadlineExceeded:
            # The tenant burned a full deadline budget: a breaker signal.
            if tenant.breaker is not None:
                tenant.breaker.record_failure()
            raise
        except BaseException:
            # Any other end (a bad node, a full queue, a cancelled
            # client) says nothing about the deadline budget: give the
            # probe back, or the breaker would stay half-open with none.
            if probe:
                tenant.breaker.release()
            raise
        else:
            if tenant.breaker is not None:
                tenant.breaker.record_success()
            return answer
        finally:
            server.book("inflight", -1)

    def stats(self, name: str) -> ServingStats:
        """One tenant's ledger (live object; snapshot with ``as_dict``)."""
        return self._tenant(name).server.stats

    def all_stats(self) -> "Dict[str, Dict[str, int]]":
        """Snapshot of every tenant's ledger, keyed by tenant.

        Every key is documented in
        :data:`~repro.serving.server.STATS_FIELDS`.
        """
        return {name: tenant.server.stats.as_dict() for name, tenant in self._tenants.items()}

    def health(self) -> "Dict[str, object]":
        """Liveness/breaker snapshot behind the ``health`` wire op.

        While started, the shared executor reports each lane's liveness
        (``lanes``), its worker pid (``lane_pids``), and how many dead
        workers it has replaced (``respawns``); ``tenant_breakers``
        snapshots every tenant's deadline-burn breaker.
        """
        executor = self._executor
        payload: "Dict[str, object]" = {
            "started": self._started,
            "tenants": list(self._tenants),
        }
        if executor is not None:
            payload["lanes"] = executor.lane_health()
            payload["lane_pids"] = executor.lane_pids()
            payload["respawns"] = executor.respawns
        tenant_breakers = {
            name: tenant.breaker.snapshot()
            for name, tenant in self._tenants.items()
            if tenant.breaker is not None
        }
        if tenant_breakers:
            payload["tenant_breakers"] = tenant_breakers
        return payload

    def aggregate_stats(self) -> "Dict[str, int]":
        """Host-wide ledger: every tenant's fields summed.

        Monotone fields (including ``hedged``/``hedge_wins``/
        ``redispatches``) and the live ``inflight`` gauge add across
        tenants; ``max_batch_size``/``max_queue_depth`` take the max —
        a per-tenant extreme is still the host's extreme.
        """
        total = dict.fromkeys(STATS_FIELDS, 0)
        for snapshot in self.all_stats().values():
            for field, value in snapshot.items():
                if field.startswith("max_"):
                    total[field] = max(total[field], value)
                else:
                    total[field] += value
        total["tenants"] = len(self._tenants)
        return total
