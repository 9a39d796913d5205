"""The asyncio query-serving front end (the Sect. IV workload, online).

:class:`QueryServer` turns the batch boundary of
:meth:`~repro.distributed.cluster.DistributedCluster.answer_many` into a
continuously admitting service:

* **Admission** — ``await submit(node, qt)`` routes the query to its
  owning machine and parks it in a bounded queue.  A full queue makes
  ``submit`` wait (backpressure) and ``submit_nowait`` raise
  :class:`~repro.errors.ServingError` (load shedding); either way the
  server's memory footprint is bounded.
* **Micro-batching** — a dispatcher coroutine drains the queue and groups
  requests per owning machine.  Dispatch is *work-conserving*: after each
  drain, a machine's batch goes out at once if this server has no batch
  in flight on that machine's lane.  Behind a busy lane the batch keeps
  filling until the lane's last copy replies (the completion flushes the
  lane's waiting machines), it reaches ``max_batch`` requests, or its
  oldest request has waited ``max_wait_ms`` — a cap, so requests queued
  behind a stuck lane still reach the hedge path.  An idle server never
  waits on a timer; load still forms batches.
* **Execution** — flushed batches go to a
  :class:`~repro.parallel.lanes.LaneExecutor` whose workers hold the
  cluster's machines rebuilt from the blueprint's arrays
  (:mod:`repro.serving.blueprint`).  A lane ships the session and each
  machine generation to its worker once, so answering overlaps with
  admission and a batch task carries only its items and two small
  parcel names.  ``workers=1`` answers inline in the event loop — the
  byte-identical reference path.
* **Sticky affinity** — a machine's batches always land on the same lane
  (``lane = lane_offset + machine_id mod lanes``), so each machine's
  reconstruction operator is cached on exactly one worker instead of
  being rebuilt wherever the pool scheduler happens to place a batch.
* **Hedging** — with ``hedge_ms`` set, a batch that has not returned
  within the deadline is *duplicated* onto the neighboring lane.  The
  first copy to finish delivers; the loser is cancelled and its result
  discarded — every request resolves exactly once (dedup is pinned by
  the chaos suite), so a slow machine stops dragging the p99 tail.
* **Failover** — a worker dying mid-batch closes its lane's pipe, and
  the EOF surfaces as ``BrokenProcessPool`` on that batch's future (and
  on every batch queued behind it on that lane).  The server re-dispatches
  the batch as its retry policy allows (by default at once, up to twice)
  onto the machine's own lane, which the EOF already re-spawned; clients
  never see the death, only the answer.
* **Per-request futures** — every submission gets its own future, so
  duplicate query nodes receive one answer *each* (``answer_many``'s
  dict return collapses duplicates; the serving layer must not).
* **Hot swap** — :meth:`QueryServer.swap_machine` replaces one machine's
  query source between micro-batches (the streaming layer's refresh
  path): updates are versioned, in-flight batches keep the generation
  they were flushed against, each lane ships a generation's arrays to
  its worker at most once, and nothing restarts.

Every answer is byte-identical to ``cluster.answer(node, query_type)``,
for any arrival interleaving, batch window, worker count, hedging
policy, and injected fault, and serving is
communication-free: a query only ever touches the machine that owns its
node.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.distributed.cluster import QUERY_TYPES, DistributedCluster, Machine
from repro.errors import DeadlineExceeded, QueryError, ServingError
from repro.obs import DEFAULT_SIZE_BOUNDS, Counter, MetricsRegistry, ObsConfig, TraceHandle
from repro.parallel.lanes import LaneExecutor, Parcel
from repro.queries.operator import check_query_node
from repro.resilience.policy import Deadline, RetryPolicy
from repro.serving.blueprint import (
    BatchReply,
    BatchTask,
    ClusterBlueprint,
    release_session,
    serve_batch_task,
)

#: Queue sentinel that tells the dispatcher to flush everything and exit.
_STOP = object()

#: Re-dispatch policy of a server built without one: a batch whose lane
#: worker died is re-sent at once, up to twice, before its requests fail.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=3, base_ms=0.0, jitter=0.0)

_BY_OUTCOME = "Query requests by final outcome"


#: Every ledger field, as ``(metric family, labels, family help)``: the
#: one table the server creates its ledger instruments from (each also
#: labeled with the server's tenant) and :class:`ServingStats` reads
#: back.  ``*_total`` families are counters, the rest gauges.  It is also
#: every field a ``stats`` wire-op reply carries; the aggregate reply
#: (tenant ``"*"``) sums them across tenants, and takes the largest of
#: the ``max_*`` ones.
STATS_FIELDS: Dict[str, Tuple[str, Dict[str, str], str]] = {
    "admitted": ("repro_admitted_total", {}, "Queries admitted to the queue"),
    "rejected": ("repro_requests_total", {"outcome": "rejected"}, _BY_OUTCOME),
    "answered": ("repro_requests_total", {"outcome": "answered"}, _BY_OUTCOME),
    "failed": ("repro_requests_total", {"outcome": "failed"}, _BY_OUTCOME),
    "cancelled": ("repro_requests_total", {"outcome": "cancelled"}, _BY_OUTCOME),
    "shed": ("repro_requests_total", {"outcome": "shed"}, _BY_OUTCOME),
    "batches": ("repro_batches_total", {}, "Micro-batches flushed"),
    "max_batch_size": ("repro_max_batch_size", {}, "Largest micro-batch flushed this session"),
    "max_queue_depth": ("repro_max_queue_depth", {}, "Deepest admission queue this session"),
    "swaps": ("repro_swaps_total", {}, "Hot machine-source swaps"),
    "hedged": ("repro_hedges_total", {}, "Batches hedged onto a second lane"),
    "hedge_wins": ("repro_hedge_wins_total", {}, "Hedged copies that delivered first"),
    "redispatches": ("repro_redispatches_total", {}, "Batches re-sent after worker death"),
    "inflight": ("repro_inflight", {}, "Host-level: requests in service against the tenant quota"),
    "quota_rejections": (
        "repro_quota_rejections_total",
        {},
        "Submissions refused at the tenant inflight quota",
    ),
    "breaker_rejections": (
        "repro_breaker_rejections_total",
        {},
        "Submissions shed while the tenant breaker was open",
    ),
}


def _ledger_instruments(registry: MetricsRegistry, tenant: str) -> Dict[str, Any]:
    """One instrument per :data:`STATS_FIELDS` entry, labeled *tenant*."""
    return {
        name: (registry.counter if family.endswith("_total") else registry.gauge)(
            family, help_text, tenant=tenant, **labels
        )
        for name, (family, labels, help_text) in STATS_FIELDS.items()
    }


class ServingStats:
    """Read-only view of one server session's ledger.

    Each field (:data:`STATS_FIELDS`) reads the registry instrument the
    server books it in, so the ledger and the metrics cannot disagree.
    A session reads the counters relative to their values when it
    started, so it starts from zero even on a shared registry, and stops
    following them when the server stops.

    ``answered`` and ``failed`` count **actual resolutions** — requests
    whose future this server resolved with a result or an error.  A future
    the client already cancelled (or otherwise resolved) before delivery
    is counted under ``cancelled`` instead, so the admission ledger
    balances exactly::

        admitted == answered + failed + cancelled + shed + still-pending

    (``still-pending`` being requests admitted but not yet resolved).
    Hedged duplicates and failover re-dispatches never double-count:
    a request resolves exactly once no matter how many batch copies ran.
    ``shed`` counts deadline-expired requests dropped *explicitly* with
    :class:`~repro.errors.DeadlineExceeded` — before dispatch when the
    budget ran out in the queue, or after a worker skipped the expired
    item instead of computing it.  ``rejected`` counts submissions
    refused because the admission queue was full.  ``inflight``,
    ``quota_rejections`` and ``breaker_rejections`` are booked by a
    :class:`~repro.serving.tenancy.TenantHost` and stay 0 on a bare
    server.
    """

    __slots__ = ("_instruments", "_base", "_final")

    def __init__(self, instruments: Dict[str, Any]):
        self._instruments = instruments
        self._base = {
            name: instrument.value
            for name, instrument in instruments.items()
            if isinstance(instrument, Counter)
        }
        self._final: "Dict[str, int] | None" = None

    def __getattr__(self, name: str) -> int:
        if name not in STATS_FIELDS:
            raise AttributeError(name)
        if self._final is not None:
            return self._final[name]
        return int(self._instruments[name].value - self._base.get(name, 0.0))

    def _freeze(self) -> None:
        """End of session: keep the current values, stop reading the registry."""
        self._final = self.as_dict()

    @property
    def mean_batch_size(self) -> float:
        """Delivered-or-failed requests per flushed batch."""
        done = self.answered + self.failed + self.cancelled
        return done / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (what the wire protocol ships)."""
        return {name: getattr(self, name) for name in STATS_FIELDS}


@dataclass(eq=False)  # identity semantics: requests live in the outstanding set
class _Request:
    node: int
    query_type: str
    machine_id: int
    future: "asyncio.Future[np.ndarray]" = field(repr=False)
    # The trace this request reports under (unset without a tracer),
    # whether this server minted it (and must finish it), and the
    # admission instant for queue-wait and end-to-end latency.
    trace: "TraceHandle | None" = field(default=None, repr=False)
    owns_trace: bool = False
    admitted_at: float = 0.0
    # Deadline budget (None = unbounded): minted at network ingress or
    # from the server's default budget, carried into the batch payload.
    deadline: "Deadline | None" = None


@dataclass
class _BatchJob:
    """One flushed micro-batch and every in-flight copy of it.

    ``delivered`` is the exactly-once gate: whichever copy (primary,
    hedge, or re-dispatch) completes first flips it and resolves the
    requests; every later completion returns without touching them.
    """

    batch: List[_Request]
    task: BatchTask
    attempts: int = 0
    delivered: bool = False
    pending: "Set[asyncio.Future]" = field(default_factory=set)
    hedge_timer: "asyncio.TimerHandle | None" = None


class QueryServer:
    """Micro-batched asyncio serving over a :class:`DistributedCluster`.

    Parameters
    ----------
    cluster:
        The cluster to serve; its routing table and machines are used
        as-is.  Answers match ``cluster.answer`` byte for byte.
    workers:
        Serving-lane count (:func:`~repro.parallel.executor.resolve_workers`
        rules: ``1`` = inline reference path, ``0`` = all cores).
        Ignored when *executor* is given.
    max_batch:
        Flush a machine's batch at this many requests.
    max_wait_ms:
        Cap on how long a batch waits behind its machine's busy lane:
        at this age it is flushed into the busy lane anyway.  A batch
        whose lane is idle goes out at once, whatever the cap.  ``0``
        never holds a batch back.
    max_pending:
        Bound on admitted-but-undispatched requests (the admission
        queue).  Full queue ⇒ ``submit`` backpressures, ``submit_nowait``
        raises.
    executor:
        Optional **external, already started**
        :class:`~repro.parallel.lanes.LaneExecutor` shared with other
        servers (the multi-tenant host).  Batches ship exactly as on
        the server's own lanes; the server never shuts it down.
    lane_offset:
        Rotation applied to the machine→lane mapping, so co-hosted
        tenants spread across a shared executor's lanes instead of all
        pinning machine 0 to lane 0.
    hedge_ms:
        Latency deadline after which an unanswered batch is duplicated
        onto the neighboring lane (``None`` disables hedging).
    retry_policy:
        The :class:`~repro.resilience.policy.RetryPolicy` driving
        server-side batch re-dispatch after a worker death (capped
        exponential backoff with deterministic jitter between attempts).
        ``None`` means :data:`DEFAULT_RETRY_POLICY`: three attempts,
        re-sent at once.
    deadline_ms:
        Default per-request deadline budget, minted at :meth:`submit`
        when the caller does not pass an explicit
        :class:`~repro.resilience.policy.Deadline`.  Expired requests
        are shed with :class:`~repro.errors.DeadlineExceeded` before
        dispatch (and skipped inside workers) rather than computed.
        ``None`` (default) = unbounded.
    chaos:
        Optional fault-injection spec dict, shipped to workers inside
        the blueprint payload and applied by
        :func:`~repro.serving.blueprint.serve_batch_task` before each
        batch (see ``tests/_chaos.py``).  ``None`` in production.
    obs:
        Optional :class:`~repro.obs.ObsConfig`.  The server always
        records the ``repro_*`` serving metric families (its
        :data:`STATS_FIELDS` ledger, queue wait, end-to-end latency,
        batch sizes, per-lane worker compute) labeled with the config's
        tenant: into the config's registry when it has one, where lane
        workers' probe deltas are merged too, and otherwise into a
        private registry.  With a tracer, every request gets a trace —
        minted here at :meth:`submit`, or adopted from the network
        ingress via the ``trace=`` argument — whose spans cover queue,
        assembly, lane dispatch, worker compute (recorded with the
        *worker's* pid), hedge/redispatch events, and total.

    Use as an async context manager::

        async with QueryServer(cluster, workers=4) as server:
            answer = await server.submit(node, "rwr")
    """

    def __init__(
        self,
        cluster: DistributedCluster,
        *,
        workers: "int | None" = 1,
        max_batch: int = 16,
        max_wait_ms: float = 2.0,
        max_pending: int = 1024,
        executor: "LaneExecutor | None" = None,
        lane_offset: int = 0,
        hedge_ms: "float | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        deadline_ms: "float | None" = None,
        chaos: "Dict | None" = None,
        obs: "ObsConfig | None" = None,
    ):
        if max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ServingError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_pending < 1:
            raise ServingError(f"max_pending must be >= 1, got {max_pending}")
        if hedge_ms is not None and hedge_ms < 0:
            raise ServingError(f"hedge_ms must be >= 0, got {hedge_ms}")
        self._cluster = cluster
        self._workers = workers
        self._max_batch = int(max_batch)
        self._max_wait = float(max_wait_ms) / 1000.0
        self._max_pending = int(max_pending)
        self._external_executor = executor
        self._lane_offset = int(lane_offset)
        self._hedge = None if hedge_ms is None else float(hedge_ms) / 1000.0
        self._retry = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServingError(f"deadline_ms must be positive, got {deadline_ms}")
        self._deadline_ms = None if deadline_ms is None else float(deadline_ms)
        self._chaos = chaos
        obs = obs or ObsConfig()
        self._tracer = obs.tracer
        self._tenant = tenant = obs.tenant
        self._registry = registry = (
            obs.registry if obs.registry is not None else MetricsRegistry()
        )
        # Lane workers profile and ship their metrics back only when
        # there is a caller's registry to merge them into.
        self._ppid = os.getpid()
        self._profile_workers = obs.registry is not None
        self._ledger = _ledger_instruments(registry, tenant)
        self._queue_wait = registry.histogram(
            "repro_queue_wait_seconds", "Admission-to-flush wait per request", tenant=tenant
        )
        self._latency = registry.histogram(
            "repro_request_latency_seconds",
            "Admission-to-resolution latency per request",
            tenant=tenant,
        )
        self._batch_size = registry.histogram(
            "repro_batch_size",
            "Requests per flushed micro-batch",
            bounds=DEFAULT_SIZE_BOUNDS,
            tenant=tenant,
        )
        self._queue_depth = registry.gauge(
            "repro_queue_depth", "Admitted-but-undispatched requests", tenant=tenant
        )
        self.stats = ServingStats(self._ledger)
        self._running = False
        self._accepting = False
        self._queue: "asyncio.Queue[object] | None" = None
        self._dispatcher: "asyncio.Task | None" = None
        self._executor: "LaneExecutor | None" = None
        self._owns_executor = True
        self._blueprint: "ClusterBlueprint | None" = None
        self._session: "Parcel | None" = None
        self._inflight: "set[asyncio.Future]" = set()
        self._outstanding: "Set[_Request]" = set()
        # Work-conserving dispatch state: requests held per machine, each
        # held batch's flush cap (loop time), and this server's batch
        # copies in flight per lane.
        self._pending: Dict[int, List[_Request]] = {}
        self._caps: Dict[int, float] = {}
        self._busy: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # ledger and tracing
    # ------------------------------------------------------------------
    def book(self, field: str, amount: float = 1.0) -> None:
        """Record *amount* of a host-level event under one
        :data:`STATS_FIELDS` field (what a tenant host books per tenant)."""
        self._ledger[field].inc(amount)

    def _raise_max(self, field: str, value: int) -> None:
        gauge = self._ledger[field]
        if value > gauge.value:
            gauge.set(value)

    def _trace_each(self, batch: "List[_Request]", name: str, duration_s: float, **meta: Any) -> None:
        """Record one span under every traced request of a batch."""
        for request in batch:
            if request.trace is not None:
                self._tracer.record(request.trace.trace_id, name, duration_s, **meta)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the server is started and accepting submissions."""
        return self._running

    @property
    def cluster(self) -> DistributedCluster:
        """The cluster this server answers for."""
        return self._cluster

    @property
    def executor(self) -> "LaneExecutor | None":
        """The lane executor batches go to (``None`` before :meth:`start`)."""
        return self._executor

    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet resolved (the ledger's pending)."""
        return len(self._outstanding)

    async def start(self) -> "QueryServer":
        """Export the cluster, start the serving lanes and the dispatcher."""
        if self._running:
            raise ServingError("server already started")
        if self._external_executor is not None and not self._external_executor.started:
            raise ServingError("external executor must be started before the server")
        self._blueprint = ClusterBlueprint(self._cluster)
        if self._chaos is not None:
            self._blueprint.payload["chaos"] = dict(self._chaos)
        self._session = self._blueprint.session()
        self._owns_executor = self._external_executor is None
        if self._owns_executor:
            self._executor = LaneExecutor(self._workers).start()
        else:
            self._executor = self._external_executor
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        # A new session's ledger starts from zero: the view reads the
        # counters relative to now, and the gauges restart.
        for instrument in self._ledger.values():
            if not isinstance(instrument, Counter):
                instrument.set(0)
        self.stats = ServingStats(self._ledger)
        self._outstanding = set()
        self._pending, self._caps, self._busy = {}, {}, {}
        self._running = True
        self._accepting = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    def swap_machine(self, machine: Machine) -> None:
        """Hot-swap one machine's query source without a restart.

        Exports the machine's *current* source (typically just refreshed
        or residual-extended by the streaming layer) as the machine's
        next generation, named by every batch flushed for it from now
        on.  In-flight batches are untouched — they carry the version
        that was live when they were flushed, so no request is dropped
        or re-answered — and batches flushed from now on are answered
        against the new source, byte-identically to ``cluster.answer``
        after the same swap.
        """
        if not self._running:
            raise ServingError("server is not running")
        self._blueprint.export_update(machine)
        self._ledger["swaps"].inc()

    def cancel_pending(self) -> int:
        """Cancel every admitted-but-unresolved request future.

        The tenant-eviction path: clients see ``CancelledError``, the
        ledger counts each such request under ``cancelled`` when its
        batch drains, and :meth:`stop` afterwards leaves
        ``admitted == answered + failed + cancelled + shed``.  Returns how
        many futures this call cancelled.
        """
        count = 0
        for request in tuple(self._outstanding):
            if not request.future.done():
                request.future.cancel()
                count += 1
        return count

    async def stop(self) -> None:
        """Drain in-flight work, stop the dispatcher, release the lanes.

        Teardown is unconditional: even if the dispatcher died on an
        unexpected error, the pool is shut down, the session's caches
        released, and every unresolved request failed rather than left
        hanging.
        """
        if not self._running:
            return
        self._accepting = False
        try:
            # A plain ``await queue.put(_STOP)`` deadlocks when the
            # admission queue is full and the dispatcher has already
            # crashed: nothing will ever drain the queue, so the put —
            # and with it the whole teardown — blocks forever.  Race the
            # put against dispatcher completion instead: a live
            # dispatcher makes room and receives the sentinel; a dead
            # one completes the wait immediately and the sentinel is
            # abandoned (the drain below rejects the stranded requests).
            put_stop = asyncio.ensure_future(self._queue.put(_STOP))
            await asyncio.wait(
                {put_stop, self._dispatcher}, return_when=asyncio.FIRST_COMPLETED
            )
            if not put_stop.done():
                put_stop.cancel()
            await asyncio.gather(put_stop, return_exceptions=True)
            await asyncio.gather(self._dispatcher, return_exceptions=True)
            # Submissions that slipped past the STOP sentinel (admission
            # races resolve in queue order) — or that were stranded by a
            # dispatcher crash — are rejected rather than left hanging.
            while True:
                try:
                    leftover = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if leftover is not _STOP:
                    self._fail_request(leftover, ServingError("server stopped"))
            # Re-dispatches and hedges can add new in-flight futures
            # while the drain awaits the old ones, so loop to quiescence.
            while self._inflight:
                await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        finally:
            self._running = False
            self._queue_depth.set(0)
            self.stats._freeze()
            if self._owns_executor and self._executor is not None:
                self._executor.shutdown()
            release_session(self._blueprint.token)  # inline-path caches
            self._dispatcher = None
            self._queue = None

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _make_request(
        self,
        node: int,
        query_type: str,
        trace: "TraceHandle | None" = None,
        deadline: "Deadline | None" = None,
    ) -> _Request:
        if not self._accepting:
            raise ServingError("server is not accepting queries")
        if query_type not in QUERY_TYPES:
            raise QueryError(f"unknown query type {query_type!r}")
        node = check_query_node(node, self._cluster.graph.num_nodes)
        machine = self._cluster.machine_for(node)
        future: "asyncio.Future[np.ndarray]" = asyncio.get_running_loop().create_future()
        request = _Request(node, query_type, machine.machine_id, future)
        if deadline is None and self._deadline_ms is not None:
            deadline = Deadline.after_ms(self._deadline_ms)
        if deadline is not None and not deadline.unbounded:
            request.deadline = deadline
        request.admitted_at = time.perf_counter()
        if self._tracer is not None:
            if trace is None:
                # In-process caller: this server is the ingress edge.
                request.trace = self._tracer.begin(
                    "query",
                    tenant=self._tenant,
                    node=request.node,
                    query_type=query_type,
                )
                request.owns_trace = True
            else:
                request.trace = trace
        return request

    def _note_admitted(self, request: _Request) -> None:
        depth = self._queue.qsize()
        self._ledger["admitted"].inc()
        self._raise_max("max_queue_depth", depth)
        self._queue_depth.set(depth)
        self._outstanding.add(request)

    def _note_rejected(self, request: _Request) -> None:
        self._ledger["rejected"].inc()
        if request.owns_trace:
            request.trace.finish(status="rejected")

    def submit_nowait(
        self,
        node: int,
        query_type: str,
        *,
        trace: "TraceHandle | None" = None,
        deadline: "Deadline | None" = None,
    ) -> "asyncio.Future[np.ndarray]":
        """Admit one query without waiting; returns its answer future.

        Raises :class:`ServingError` when the admission queue is full
        (load shedding) or the server is not running, and
        :class:`~repro.errors.QueryError` for invalid nodes/query types —
        the same validation surface as ``cluster.answer``.  *trace* lets
        an upstream ingress (the network tier) attach the trace it
        already minted for this request; *deadline* the budget it minted
        (defaulting to the server's ``deadline_ms``, or unbounded).
        """
        request = self._make_request(node, query_type, trace, deadline)
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self._note_rejected(request)
            raise ServingError(
                f"admission queue full ({self._max_pending} pending); retry or back off"
            ) from None
        self._note_admitted(request)
        return request.future

    async def submit(
        self,
        node: int,
        query_type: str,
        *,
        trace: "TraceHandle | None" = None,
        deadline: "Deadline | None" = None,
    ) -> np.ndarray:
        """Admit one query (waiting for queue space if needed) and await it.

        This is the backpressure path: a saturated server slows its
        clients down instead of growing without bound.
        """
        request = self._make_request(node, query_type, trace, deadline)
        await self._queue.put(request)
        self._note_admitted(request)
        return await request.future

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        try:
            await self._dispatch()
        except BaseException as error:
            # The dispatcher must never die silently with requests parked
            # in its buffers: fail them so clients unblock, then let
            # stop() handle teardown.
            for batch in self._pending.values():
                for request in batch:
                    self._fail_request(request, error)
            self._pending.clear()
            self._caps.clear()
            raise

    async def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        pending, caps = self._pending, self._caps
        stopping = False
        while True:
            timeout: "float | None" = None
            if caps:
                timeout = max(0.0, min(caps.values()) - loop.time())
            try:
                item = await asyncio.wait_for(self._queue.get(), timeout)
            except asyncio.TimeoutError:
                item = None
            # Drain whatever arrived in the same wakeup: batches form from
            # genuinely concurrent arrivals, not one queue item per cycle.
            while item is not None:
                if item is _STOP:
                    stopping = True
                else:
                    request = item
                    batch = pending.setdefault(request.machine_id, [])
                    batch.append(request)
                    if len(batch) == 1:
                        caps[request.machine_id] = loop.time() + self._max_wait
                    if len(batch) >= self._max_batch:
                        self._flush(request.machine_id)
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            # Work-conserving: a machine whose lane this server leaves
            # idle goes out now; behind a busy lane it waits for the
            # lane's reply (_on_copy_replied), a full batch, or its cap.
            now = loop.time()
            for machine_id in list(pending):
                if machine_id in pending and (
                    stopping
                    or caps[machine_id] <= now
                    or not self._busy.get(self._lane_slot(machine_id))
                ):
                    self._flush(machine_id)
            if stopping:
                return

    def _lane_slot(self, machine_id: int) -> int:
        """The executor lane a machine's primary copy goes to."""
        return self._lane_for(machine_id, hedged=False) % self._executor.lanes

    def _on_copy_replied(self, slot: int) -> None:
        """A batch copy left lane *slot*; once this server has none left
        there, the machines waiting on that lane go out at once."""
        remaining = self._busy.get(slot, 0) - 1
        if remaining > 0:
            self._busy[slot] = remaining
            return
        self._busy.pop(slot, None)
        for machine_id in [m for m in self._pending if self._lane_slot(m) == slot]:
            self._flush(machine_id)

    def _flush(self, machine_id: int) -> None:
        batch = self._pending.pop(machine_id, None)
        self._caps.pop(machine_id, None)
        if not batch:
            return
        # Shed work whose budget already ran out in the queue: the
        # client gets a typed DeadlineExceeded now instead of an answer
        # it stopped waiting for after the batch computes.
        expired = [r for r in batch if r.deadline is not None and r.deadline.expired()]
        if expired:
            batch = [r for r in batch if r.deadline is None or not r.deadline.expired()]
            for request in expired:
                self._shed_request(request)
            if not batch:
                return
        self._ledger["batches"].inc()
        self._raise_max("max_batch_size", len(batch))
        t_assemble = time.perf_counter()
        # Deadlines ride into the worker with each item, so compute skips
        # anything that expired in flight.
        items = [
            (
                request.node,
                request.query_type,
                None if request.deadline is None else request.deadline.expires_at,
            )
            for request in batch
        ]
        task = BatchTask(
            machine_id,
            items,
            self._blueprint.source(machine_id),
            self._ppid,
            self._profile_workers,
        )
        job = _BatchJob(batch=batch, task=task)
        now = time.perf_counter()
        self._batch_size.observe(len(batch))
        self._queue_depth.set(self._queue.qsize())
        for request in batch:
            self._queue_wait.observe(now - request.admitted_at)
        if self._tracer is not None:
            for request in batch:
                if request.trace is not None:
                    self._tracer.record(
                        request.trace.trace_id,
                        "queue",
                        now - request.admitted_at,
                        machine=machine_id,
                    )
            self._trace_each(
                batch, "assemble", now - t_assemble, machine=machine_id, size=len(batch)
            )
        self._dispatch_job(job)
        if self._hedge is not None and not job.delivered:
            job.hedge_timer = asyncio.get_running_loop().call_later(
                self._hedge, self._fire_hedge, job
            )

    def _lane_for(self, machine_id: int, *, hedged: bool) -> int:
        # Sticky affinity: one lane per machine, so its operator cache
        # lives on exactly one worker.  The hedge copy goes next door.
        return self._lane_offset + machine_id + (1 if hedged else 0)

    def _dispatch_job(self, job: _BatchJob, *, hedged: bool = False) -> None:
        """Submit one copy of a batch to its lane (primary, hedge, retry)."""
        task = job.task
        lane = self._lane_for(task.machine_id, hedged=hedged)
        attempt = job.attempts
        t_dispatch = time.perf_counter()
        try:
            pool_future = self._executor.submit(
                serve_batch_task, task, lane=lane, shared=self._session
            )
        except BaseException as error:  # e.g. executor already shut down
            if not job.delivered and not job.pending:
                job.delivered = True
                self._cancel_hedge(job)
                for request in job.batch:
                    self._fail_request(request, error)
            return
        if not self._executor.inline:
            # The lane stays busy until the worker replies, even if this
            # copy's asyncio wrapper is cancelled (a hedge loser) first.
            slot = lane % self._executor.lanes
            self._busy[slot] = self._busy.get(slot, 0) + 1
            pool_future.add_done_callback(lambda _done: self._on_copy_replied(slot))
        wrapped = asyncio.ensure_future(asyncio.wrap_future(pool_future))
        self._inflight.add(wrapped)
        job.pending.add(wrapped)
        wrapped.add_done_callback(
            lambda done, job=job, hedged=hedged: self._on_batch_done(
                done, job, hedged, lane=lane, attempt=attempt, t_dispatch=t_dispatch
            )
        )

    def _fire_hedge(self, job: _BatchJob) -> None:
        """Hedge deadline passed: duplicate the batch onto the next lane."""
        job.hedge_timer = None
        if job.delivered or not job.pending or not self._running:
            return
        self._ledger["hedged"].inc()
        if self._tracer is not None:
            machine_id = job.task.machine_id
            for request in job.batch:
                if request.trace is not None:
                    self._tracer.event(
                        request.trace.trace_id,
                        "hedge",
                        machine=machine_id,
                        lane=self._lane_for(machine_id, hedged=True),
                    )
        self._dispatch_job(job, hedged=True)

    def _cancel_hedge(self, job: _BatchJob) -> None:
        if job.hedge_timer is not None:
            job.hedge_timer.cancel()
            job.hedge_timer = None

    @staticmethod
    def _retryable(error: BaseException) -> bool:
        """Worker-death errors — the batch is intact, only its lane died."""
        return isinstance(error, BrokenProcessPool)

    def _on_batch_done(
        self,
        done: "asyncio.Future",
        job: _BatchJob,
        hedged: bool,
        *,
        lane: int = 0,
        attempt: int = 0,
        t_dispatch: float = 0.0,
    ) -> None:
        self._inflight.discard(done)
        job.pending.discard(done)
        won = not job.delivered
        if done.cancelled():
            error: "BaseException | None" = asyncio.CancelledError("batch copy cancelled")
        else:
            error = done.exception()
        reply: "BatchReply | None" = done.result() if error is None else None
        self._note_copy_done(
            job,
            reply,
            lane=lane,
            attempt=attempt,
            hedged=hedged,
            t_dispatch=t_dispatch,
            outcome=(
                "cancelled"
                if done.cancelled()
                else "error"
                if error is not None
                else "delivered"
                if won
                else "late"
            ),
        )
        if not won:
            # A sibling copy already resolved every request — the
            # exactly-once gate that pins hedge dedup.
            return
        if error is None:
            job.delivered = True
            self._cancel_hedge(job)
            for loser in tuple(job.pending):
                loser.cancel()
            if hedged:
                self._ledger["hedge_wins"].inc()
            for request, answer in zip(job.batch, reply.answers):
                if answer is None:
                    # The worker skipped this item: its shipped deadline
                    # expired before compute.  Typed shed, not a failure.
                    self._shed_request(request)
                else:
                    self._resolve_request(request, answer)
            return
        if job.pending:
            # Another copy of this batch is still in flight; it will
            # deliver, or its own completion will drive the retry below.
            return
        if (
            self._retryable(error)
            and self._retry.should_retry(job.attempts + 1)
            and self._running
        ):
            # The worker died mid-batch, and its lane's EOF already
            # re-spawned it (or the next submit will); re-dispatch this
            # batch onto it after the policy's backoff (none by default).
            job.attempts += 1
            self._ledger["redispatches"].inc()
            machine_id = job.task.machine_id
            if self._tracer is not None:
                for request in job.batch:
                    if request.trace is not None:
                        self._tracer.event(
                            request.trace.trace_id,
                            "redispatch",
                            machine=machine_id,
                            attempt=job.attempts,
                        )
            delay_ms = self._retry.backoff_ms(job.attempts, key=f"m{machine_id}")
            if delay_ms <= 0:
                self._dispatch_job(job)
            else:
                self._schedule_retry(job, delay_ms / 1000.0)
            return
        job.delivered = True
        self._cancel_hedge(job)
        for request in job.batch:
            self._fail_request(request, error)

    def _schedule_retry(self, job: _BatchJob, delay_s: float) -> None:
        """Re-dispatch *job* after a backoff sleep.

        The sleep rides in ``_inflight`` (and the job's ``pending`` set)
        like a batch copy, so ``stop()``'s drain loop waits it out and
        hedge delivery cancels it — no copy is ever orphaned behind a
        timer.
        """
        timer = asyncio.get_running_loop().create_task(asyncio.sleep(delay_s))
        self._inflight.add(timer)
        job.pending.add(timer)
        timer.add_done_callback(lambda done, job=job: self._on_retry_timer(done, job))

    def _on_retry_timer(self, done: "asyncio.Future", job: _BatchJob) -> None:
        self._inflight.discard(done)
        job.pending.discard(done)
        if job.delivered or done.cancelled():
            return
        self._dispatch_job(job)

    def _note_copy_done(
        self,
        job: _BatchJob,
        reply: "BatchReply | None",
        *,
        lane: int,
        attempt: int,
        hedged: bool,
        t_dispatch: float,
        outcome: str,
    ) -> None:
        """Record one batch copy's round trip: dispatch span, compute span
        (with the worker's pid — the cross-process proof), worker compute
        histogram, and the harvested worker-registry delta."""
        machine_id = job.task.machine_id
        if self._tracer is not None:
            self._trace_each(
                job.batch,
                "dispatch",
                time.perf_counter() - t_dispatch,
                machine=machine_id,
                lane=lane,
                hedged=hedged,
                attempt=attempt,
                outcome=outcome,
            )
            if reply is not None:
                self._trace_each(
                    job.batch,
                    "compute",
                    reply.compute_s,
                    pid=reply.pid,
                    machine=machine_id,
                    lane=lane,
                    hedged=hedged,
                )
        if reply is None:
            return
        self._registry.histogram(
            "repro_worker_compute_seconds",
            "Batch compute time inside a lane worker",
            tenant=self._tenant,
            lane=str(lane),
        ).observe(reply.compute_s)
        if reply.metrics:
            self._registry.merge_snapshot(reply.metrics)

    def _resolve_request(self, request: _Request, answer: np.ndarray) -> None:
        # Count only futures this server actually resolves: a client
        # may have cancelled (or timed out) its request while the
        # batch was in flight, and blindly bumping ``answered`` for
        # those would drift the counters away from answers delivered.
        self._outstanding.discard(request)
        if request.future.done():
            self._note_resolved(request, "cancelled")
        else:
            request.future.set_result(answer)
            self._note_resolved(request, "answered")

    def _fail_request(self, request: _Request, error: BaseException) -> None:
        self._outstanding.discard(request)
        if request.future.done():
            self._note_resolved(request, "cancelled")
        else:
            request.future.set_exception(error)
            self._note_resolved(request, "failed")

    def _shed_request(self, request: _Request) -> None:
        """Drop a deadline-expired request with a typed error (ledger: shed)."""
        self._outstanding.discard(request)
        if request.future.done():
            self._note_resolved(request, "cancelled")
        else:
            request.future.set_exception(
                DeadlineExceeded(
                    f"deadline expired before compute for node {request.node}"
                )
            )
            self._note_resolved(request, "shed")

    def _note_resolved(self, request: _Request, outcome: str) -> None:
        """Request reached its final state: ledger outcome, latency, trace total."""
        self._ledger[outcome].inc()
        self._latency.observe(time.perf_counter() - request.admitted_at)
        if request.owns_trace and request.trace is not None:
            request.trace.finish(status="ok" if outcome == "answered" else outcome)


def serve_queries(
    cluster: DistributedCluster,
    queries: Sequence[Tuple[int, str]],
    *,
    workers: "int | None" = 1,
    **server_kwargs,
) -> List[np.ndarray]:
    """Serve a fixed query stream and return the answers in request order.

    Synchronous convenience over :class:`QueryServer` for scripts and
    tests: all queries are submitted concurrently (arrival order =
    sequence order), duplicates included, and each gets its own answer.
    """

    async def _run() -> List[np.ndarray]:
        async with QueryServer(cluster, workers=workers, **server_kwargs) as server:
            return list(
                await asyncio.gather(
                    *(server.submit(node, query_type) for node, query_type in queries)
                )
            )

    return asyncio.run(_run())
