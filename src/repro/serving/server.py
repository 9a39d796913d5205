"""The asyncio query-serving front end (the Sect. IV workload, online).

:class:`QueryServer` turns the batch boundary of
:meth:`~repro.distributed.cluster.DistributedCluster.answer_batch` into a
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
  cluster's machines rebuilt from shared memory
  (:mod:`repro.serving.blueprint`), so answering overlaps with admission
  and nothing large is pickled per batch.  ``workers=1`` answers inline
  in the event loop — the byte-identical reference path.
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
  the batch (up to ``max_redispatch`` times) onto a freshly re-spawned
  lane; clients never see the death, only the answer.
* **Per-request futures** — every submission gets its own future, so
  duplicate query nodes receive one answer *each* (``answer_batch``'s
  dict return collapses duplicates; the serving layer must not).
* **Hot swap** — :meth:`QueryServer.swap_machine` replaces one machine's
  query source between micro-batches (the streaming layer's refresh
  path): updates are versioned, in-flight batches keep the generation
  they were flushed against, and nothing restarts.

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

from repro.distributed.cluster import DistributedCluster, Machine
from repro.errors import DeadlineExceeded, QueryError, ServingError
from repro.obs import DEFAULT_SIZE_BOUNDS, ObsConfig, TraceHandle
from repro.parallel.lanes import LaneExecutor
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import Deadline, RetryPolicy
from repro.serving.blueprint import ClusterBlueprint, release_session, serve_batch_task

QUERY_TYPES = ("rwr", "hop", "php")

#: Queue sentinel that tells the dispatcher to flush everything and exit.
_STOP = object()


@dataclass
class ServingStats:
    """Counters exposed by :attr:`QueryServer.stats` (monotone per session).

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
    item instead of computing it.
    """

    admitted: int = 0
    rejected: int = 0
    answered: int = 0
    failed: int = 0
    cancelled: int = 0
    batches: int = 0
    max_batch_size: int = 0
    max_queue_depth: int = 0
    swaps: int = 0
    #: Batches duplicated onto another lane after the hedge deadline.
    hedged: int = 0
    #: Hedged duplicates that delivered before the primary copy.
    hedge_wins: int = 0
    #: Batches re-dispatched after a worker died mid-flight.
    redispatches: int = 0
    #: Requests dropped with ``DeadlineExceeded`` because their budget
    #: expired before (or inside) compute — explicit, typed shedding.
    shed: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Delivered-or-failed requests per flushed batch."""
        done = self.answered + self.failed + self.cancelled
        return done / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (what the wire protocol ships)."""
        from dataclasses import asdict

        return asdict(self)


#: Every field a ``stats`` wire-op reply can carry, documented in one
#: place.  The per-tenant reply ships every :class:`ServingStats` field
#: plus the host-level ``inflight``/``quota_rejections``; the aggregate
#: reply (tenant ``"*"`` or omitted) sums the summable ones across
#: tenants.  ``repro top`` and the docs table both render from this.
STATS_FIELDS: Dict[str, str] = {
    "admitted": "Queries accepted into the admission queue.",
    "rejected": "Queries shed because the admission queue was full.",
    "answered": "Request futures resolved with an answer.",
    "failed": "Request futures resolved with an error.",
    "cancelled": "Requests whose future was already done (client cancel/timeout) when their batch resolved.",
    "batches": "Micro-batches flushed to the serving lanes.",
    "max_batch_size": "Largest flushed batch so far.",
    "max_queue_depth": "Deepest the admission queue has been.",
    "swaps": "Hot machine-source swaps applied (streaming refresh path).",
    "hedged": "Batches duplicated onto the neighboring lane after the hedge deadline.",
    "hedge_wins": "Hedged duplicates that delivered before the primary copy.",
    "redispatches": "Batches re-sent after a lane worker died mid-flight.",
    "shed": "Requests dropped with DeadlineExceeded because their deadline budget expired.",
    "inflight": "Host-level: requests admitted but not yet resolved (counts against the tenant quota).",
    "quota_rejections": "Host-level: submissions refused because the tenant was at its inflight quota.",
    "breaker_rejections": "Host-level: submissions shed because a tenant breaker was open (Overloaded).",
}


@dataclass(eq=False)  # identity semantics: requests live in the outstanding set
class _Request:
    node: int
    query_type: str
    machine_id: int
    future: "asyncio.Future[np.ndarray]" = field(repr=False)
    # Observability (all unset when the server runs without an ObsConfig):
    # the trace this request reports under, whether this server minted it
    # (and must finish it), and the admission instant for queue-wait and
    # end-to-end latency measurements.
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

    machine_id: int
    batch: List[_Request]
    # 2-tuples ``(node, query_type)`` on the legacy path; 3-tuples
    # ``(node, query_type, expires_at)`` when any request in the batch
    # carries a bounded deadline (workers skip expired items).
    items: "List[Tuple]"
    update: "Dict | None"
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
    use_shared_memory:
        Ship machine arrays via ``multiprocessing.shared_memory``
        (default) or by pickling once per worker (``False``).
    mp_context:
        Optional multiprocessing context for the serving lanes.
    executor:
        Optional **external, already started**
        :class:`~repro.parallel.lanes.LaneExecutor` shared with other
        servers (the multi-tenant host).  The server then ships its
        blueprint payload per batch instead of installing it at pool
        start, and never shuts the executor down.
    lane_offset:
        Rotation applied to the machine→lane mapping, so co-hosted
        tenants spread across a shared executor's lanes instead of all
        pinning machine 0 to lane 0.
    hedge_ms:
        Latency deadline after which an unanswered batch is duplicated
        onto the neighboring lane (``None`` disables hedging).
    max_redispatch:
        How many times a batch whose worker died mid-flight is re-sent
        before its requests are failed.  Shorthand for
        ``retry_policy=RetryPolicy(max_attempts=max_redispatch + 1,
        base_ms=0, jitter=0)`` — immediate re-dispatch, the pre-retry
        behavior.  Ignored when *retry_policy* is given.
    retry_policy:
        Optional :class:`~repro.resilience.policy.RetryPolicy` driving
        server-side batch re-dispatch after a worker death: capped
        exponential backoff with deterministic jitter between attempts
        instead of immediate re-sends.
    deadline_ms:
        Default per-request deadline budget, minted at :meth:`submit`
        when the caller does not pass an explicit
        :class:`~repro.resilience.policy.Deadline`.  Expired requests
        are shed with :class:`~repro.errors.DeadlineExceeded` before
        dispatch (and skipped inside workers) rather than computed.
        ``None`` (default) = unbounded.
    breakers:
        Optional per-lane
        :class:`~repro.resilience.breaker.BreakerBoard` (typically
        shared host-wide).  Dispatch walks past lanes whose breaker is
        open, and every batch copy's outcome feeds its lane's breaker.
    chaos:
        Optional fault-injection spec dict, shipped to workers inside
        the blueprint payload and applied by
        :func:`~repro.serving.blueprint.serve_batch_task` before each
        batch (see ``tests/_chaos.py``).  ``None`` in production.
    obs:
        Optional :class:`~repro.obs.ObsConfig`.  With a registry, the
        server records the ``repro_*`` serving metric families (request
        outcomes, queue wait, end-to-end latency, batch sizes, per-lane
        worker compute, hedge/redispatch counts) labeled with the
        config's tenant; with a tracer, every request gets a trace —
        minted here at :meth:`submit`, or adopted from the network
        ingress via the ``trace=`` argument — whose spans cover queue,
        assembly, lane dispatch, worker compute (recorded with the
        *worker's* pid), hedge/redispatch events, and total.  ``None``
        (the default) keeps the task tuples, result shapes, and costs of
        the uninstrumented server.

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
        use_shared_memory: bool = True,
        mp_context=None,
        executor: "LaneExecutor | None" = None,
        lane_offset: int = 0,
        hedge_ms: "float | None" = None,
        max_redispatch: int = 2,
        retry_policy: "RetryPolicy | None" = None,
        deadline_ms: "float | None" = None,
        breakers: "BreakerBoard | None" = None,
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
        if max_redispatch < 0:
            raise ServingError(f"max_redispatch must be >= 0, got {max_redispatch}")
        self._cluster = cluster
        self._workers = workers
        self._max_batch = int(max_batch)
        self._max_wait = float(max_wait_ms) / 1000.0
        self._max_pending = int(max_pending)
        self._use_shared_memory = use_shared_memory
        self._mp_context = mp_context
        self._external_executor = executor
        self._lane_offset = int(lane_offset)
        self._hedge = None if hedge_ms is None else float(hedge_ms) / 1000.0
        self._max_redispatch = int(max_redispatch)
        # max_redispatch=N maps onto an immediate-redispatch policy, so
        # the legacy knob and the new one share a single retry path.
        self._retry = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_attempts=self._max_redispatch + 1, base_ms=0.0, jitter=0.0
            )
        )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServingError(f"deadline_ms must be positive, got {deadline_ms}")
        self._deadline_ms = None if deadline_ms is None else float(deadline_ms)
        self._breakers = breakers
        self._chaos = chaos
        self._obs = obs if obs is not None and obs.enabled else None
        self._tracer = self._obs.tracer if self._obs is not None else None
        # Shipped as the batch task's 4th element when observability is
        # on; its presence is also what makes serve_batch_task return the
        # (answers, obs) pair instead of the legacy bare answer list.
        self._ospec: "Dict[str, Any] | None" = None
        if self._obs is not None:
            self._ospec = {
                "ppid": os.getpid(),
                "profile": bool(self._obs.profile_workers),
            }
        self._metrics: "Dict[str, Any] | None" = None
        if self._obs is not None and self._obs.registry is not None:
            self._metrics = self._build_metrics(self._obs)
        self.stats = ServingStats()
        self._running = False
        self._accepting = False
        self._queue: "asyncio.Queue[object] | None" = None
        self._dispatcher: "asyncio.Task | None" = None
        self._executor: "LaneExecutor | None" = None
        self._owns_executor = True
        self._blueprint: "ClusterBlueprint | None" = None
        self._inflight: "set[asyncio.Future]" = set()
        self._outstanding: "Set[_Request]" = set()
        # Work-conserving dispatch state: requests held per machine, each
        # held batch's flush cap (loop time), and this server's batch
        # copies in flight per lane.
        self._pending: Dict[int, List[_Request]] = {}
        self._caps: Dict[int, float] = {}
        self._busy: Dict[int, int] = {}
        self._updates: Dict[int, Dict] = {}
        # In-flight batch copies per (machine_id, version): a superseded
        # update's shm block is retired when its count returns to zero.
        self._update_refs: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _build_metrics(obs: ObsConfig) -> "Dict[str, Any]":
        """Pre-resolve this server's instruments (one dict per tenant label)."""
        reg = obs.registry
        tenant = obs.tenant
        outcome = {
            o: reg.counter(
                "repro_requests_total",
                "Query requests by final outcome",
                tenant=tenant,
                outcome=o,
            )
            for o in ("answered", "failed", "cancelled", "rejected", "shed")
        }
        return {
            "outcome": outcome,
            "admitted": reg.counter(
                "repro_admitted_total", "Queries admitted to the queue", tenant=tenant
            ),
            "batches": reg.counter(
                "repro_batches_total", "Micro-batches flushed", tenant=tenant
            ),
            "hedges": reg.counter(
                "repro_hedges_total", "Batches hedged onto a second lane", tenant=tenant
            ),
            "hedge_wins": reg.counter(
                "repro_hedge_wins_total", "Hedged copies that delivered first", tenant=tenant
            ),
            "redispatches": reg.counter(
                "repro_redispatches_total", "Batches re-sent after worker death", tenant=tenant
            ),
            "swaps": reg.counter(
                "repro_swaps_total", "Hot machine-source swaps", tenant=tenant
            ),
            "queue_wait": reg.histogram(
                "repro_queue_wait_seconds",
                "Admission-to-flush wait per request",
                tenant=tenant,
            ),
            "latency": reg.histogram(
                "repro_request_latency_seconds",
                "Admission-to-resolution latency per request",
                tenant=tenant,
            ),
            "batch_size": reg.histogram(
                "repro_batch_size",
                "Requests per flushed micro-batch",
                bounds=DEFAULT_SIZE_BOUNDS,
                tenant=tenant,
            ),
            "queue_depth": reg.gauge(
                "repro_queue_depth", "Admitted-but-undispatched requests", tenant=tenant
            ),
        }

    def _worker_compute_hist(self, lane: int):
        """The per-lane worker-compute histogram (lanes appear dynamically)."""
        return self._obs.registry.histogram(
            "repro_worker_compute_seconds",
            "Batch compute time inside a lane worker",
            tenant=self._obs.tenant,
            lane=str(lane),
        )

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
    def uses_shared_memory(self) -> bool:
        """Whether machine arrays actually live in shared memory."""
        return self._blueprint is not None and self._blueprint.uses_shared_memory

    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet resolved (the ledger's pending)."""
        return len(self._outstanding)

    async def start(self) -> "QueryServer":
        """Export the cluster, start the serving lanes and the dispatcher."""
        if self._running:
            raise ServingError("server already started")
        self._blueprint = ClusterBlueprint(
            self._cluster, use_shared_memory=self._use_shared_memory
        )
        payload = self._blueprint.payload
        if self._chaos is not None:
            payload["chaos"] = dict(self._chaos)
        if self._external_executor is not None:
            if not self._external_executor.started:
                self._blueprint.close()
                self._blueprint = None
                raise ServingError("external executor must be started before the server")
            self._executor = self._external_executor
            self._owns_executor = False
        else:
            try:
                self._executor = LaneExecutor(
                    self._workers, mp_context=self._mp_context, shared=payload
                ).start()
            except BaseException:
                # A failed pool start must not leak the shared-memory block.
                self._blueprint.close()
                self._blueprint = None
                raise
            self._owns_executor = True
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        self.stats = ServingStats()
        self._updates = {}
        self._update_refs = {}
        self._outstanding = set()
        self._pending, self._caps, self._busy = {}, {}, {}
        self._running = True
        self._accepting = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    def swap_machine(self, machine: Machine) -> None:
        """Hot-swap one machine's query source without a restart.

        Exports the machine's *current* source (typically just refreshed
        or residual-extended by the streaming layer) as a versioned
        update that rides along with every subsequent batch flushed for
        that machine.  In-flight batches are untouched — they carry the
        version that was live when they were flushed, so no request is
        dropped or re-answered — and batches flushed from now on are
        answered against the new source, byte-identically to
        ``cluster.answer`` after the same swap.
        """
        if not self._running:
            raise ServingError("server is not running")
        previous = self._updates.get(machine.machine_id)
        self._updates[machine.machine_id] = self._blueprint.export_update(machine)
        self.stats.swaps += 1
        if self._metrics is not None:
            self._metrics["swaps"].inc()
        if previous is not None:
            # The superseded generation can be reclaimed as soon as no
            # in-flight batch carries it (possibly right now).
            key = (machine.machine_id, previous["version"])
            if self._update_refs.get(key, 0) == 0:
                self._blueprint.retire_update(*key)

    def cancel_pending(self) -> int:
        """Cancel every admitted-but-unresolved request future.

        The tenant-eviction path: clients see ``CancelledError``, the
        ledger counts each such request under ``cancelled`` when its
        batch drains, and :meth:`stop` afterwards leaves
        ``admitted == answered + failed + cancelled``.  Returns how many
        futures this call cancelled.
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
        unexpected error, the pool is shut down, the shared-memory block
        unlinked, and every unresolved request failed rather than left
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
            if self._metrics is not None:
                self._metrics["queue_depth"].set(0)
            if self._owns_executor and self._executor is not None:
                self._executor.shutdown()
            release_session(self._blueprint.payload)  # inline-path caches
            self._blueprint.close()
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
        machine = self._cluster.machine_for(int(node))  # validates the node
        future: "asyncio.Future[np.ndarray]" = asyncio.get_running_loop().create_future()
        request = _Request(int(node), query_type, machine.machine_id, future)
        if deadline is None and self._deadline_ms is not None:
            deadline = Deadline.after_ms(self._deadline_ms)
        if deadline is not None and not deadline.unbounded:
            request.deadline = deadline
        if self._obs is not None:
            request.admitted_at = time.perf_counter()
            if self._tracer is not None:
                if trace is None:
                    # In-process caller: this server is the ingress edge.
                    request.trace = self._tracer.begin(
                        "query",
                        tenant=self._obs.tenant,
                        node=request.node,
                        query_type=query_type,
                    )
                    request.owns_trace = True
                else:
                    request.trace = trace
        return request

    def _note_admitted(self, request: _Request) -> None:
        self.stats.admitted += 1
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, self._queue.qsize())
        self._outstanding.add(request)
        if self._metrics is not None:
            self._metrics["admitted"].inc()
            self._metrics["queue_depth"].set(self._queue.qsize())

    def _note_rejected(self, request: _Request) -> None:
        self.stats.rejected += 1
        if self._metrics is not None:
            self._metrics["outcome"]["rejected"].inc()
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
        """The executor lane a machine's primary copy would go to now."""
        return self._lane_for(machine_id, hedged=False, peek=True) % self._executor.lanes

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
        self.stats.batches += 1
        self.stats.max_batch_size = max(self.stats.max_batch_size, len(batch))
        t_assemble = time.perf_counter() if self._obs is not None else 0.0
        if any(request.deadline is not None for request in batch):
            # Deadlines ride into the worker as a 3rd item element so
            # compute skips anything that expired in flight.
            items: "List[Tuple]" = [
                (
                    request.node,
                    request.query_type,
                    None if request.deadline is None else request.deadline.expires_at,
                )
                for request in batch
            ]
        else:
            items = [(request.node, request.query_type) for request in batch]
        job = _BatchJob(
            machine_id=machine_id,
            batch=batch,
            items=items,
            update=self._updates.get(machine_id),
        )
        if self._obs is not None:
            now = time.perf_counter()
            if self._metrics is not None:
                self._metrics["batches"].inc()
                self._metrics["batch_size"].observe(len(batch))
                self._metrics["queue_depth"].set(self._queue.qsize())
                queue_wait = self._metrics["queue_wait"]
                for request in batch:
                    queue_wait.observe(now - request.admitted_at)
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

    def _lane_for(self, machine_id: int, *, hedged: bool, peek: bool = False) -> int:
        # Sticky affinity: one lane per machine, so its operator cache
        # lives on exactly one worker.  The hedge copy goes next door.
        preferred = self._lane_offset + machine_id + (1 if hedged else 0)
        if self._breakers is None or self._executor is None or self._executor.inline:
            return preferred
        # Breaker-aware: walk past lanes whose breaker is open (flapping
        # workers) to the nearest admitting lane.  All-open falls back to
        # the preferred lane — total outage beats refusing everything.
        # A *peek* (a lookup that dispatches nothing) uses up no half-open
        # probe: the probe belongs to the copy whose outcome the breaker
        # records.
        lanes = self._executor.lanes
        for step in range(lanes):
            candidate = (preferred + step) % lanes
            breaker = self._breakers.get(candidate)
            if breaker.admits() if peek else breaker.allow():
                return candidate
        return preferred % lanes

    def _dispatch_job(self, job: _BatchJob, *, hedged: bool = False) -> None:
        """Submit one copy of a batch to its lane (primary, hedge, retry)."""
        update = job.update
        if self._ospec is not None:
            # Observability on: ship the observation spec as the task's
            # 4th element; the worker then returns (answers, obs).
            task = (job.machine_id, job.items, update, self._ospec)
        elif update is None:
            task = (job.machine_id, job.items)
        else:
            task = (job.machine_id, job.items, update)
        key = None if update is None else (job.machine_id, update["version"])
        if key is not None:
            self._update_refs[key] = self._update_refs.get(key, 0) + 1
        lane = self._lane_for(job.machine_id, hedged=hedged)
        attempt = job.attempts
        t_dispatch = time.perf_counter() if self._obs is not None else 0.0
        try:
            if self._owns_executor:
                pool_future = self._executor.submit(serve_batch_task, task, lane=lane)
            else:
                # Shared executor (multi-tenant host): this server's
                # payload rides with the task instead of living as the
                # pool's session value.
                pool_future = self._executor.submit(
                    serve_batch_task, task, lane=lane, shared=self._blueprint.payload
                )
        except BaseException as error:  # e.g. executor already shut down
            self._release_update(key)
            if not job.delivered and not job.pending:
                job.delivered = True
                self._cancel_hedge(job)
                for request in job.batch:
                    self._fail_request(request, error)
            return
        if self._breakers is not None:
            # Fed from the lane future, which completes even when this
            # copy's asyncio wrapper is cancelled (a hedge loser): every
            # dispatched copy reports to its lane's breaker exactly once,
            # before the lane's waiting machines are flushed below.
            breaker = self._breakers.get(lane % max(1, self._executor.lanes))
            pool_future.add_done_callback(lambda done: self._feed_breaker(breaker, done))
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
            lambda done, job=job, key=key, hedged=hedged: self._on_batch_done(
                done, job, key, hedged, lane=lane, attempt=attempt, t_dispatch=t_dispatch
            )
        )

    def _feed_breaker(self, breaker, done) -> None:
        """One batch copy's lane outcome: worker deaths are lane failures;
        application errors are not (the lane computed fine).  A copy
        cancelled before it reached the worker tells nothing and gives
        back the probe it may have spent."""
        if done.cancelled():
            breaker.release()
            return
        error = done.exception()
        if error is None:
            breaker.record_success()
        elif self._retryable(error):
            breaker.record_failure()

    def _fire_hedge(self, job: _BatchJob) -> None:
        """Hedge deadline passed: duplicate the batch onto the next lane."""
        job.hedge_timer = None
        if job.delivered or not job.pending or not self._running:
            return
        self.stats.hedged += 1
        if self._metrics is not None:
            self._metrics["hedges"].inc()
        if self._tracer is not None:
            for request in job.batch:
                if request.trace is not None:
                    self._tracer.event(
                        request.trace.trace_id,
                        "hedge",
                        machine=job.machine_id,
                        lane=self._lane_for(job.machine_id, hedged=True, peek=True),
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
        key: "Tuple[int, int] | None",
        hedged: bool,
        *,
        lane: int = 0,
        attempt: int = 0,
        t_dispatch: float = 0.0,
    ) -> None:
        self._release_update(key)
        self._inflight.discard(done)
        job.pending.discard(done)
        won = not job.delivered
        if done.cancelled():
            error: "BaseException | None" = asyncio.CancelledError("batch copy cancelled")
        else:
            error = done.exception()
        answers = done.result() if error is None and not done.cancelled() else None
        obs_payload = None
        if answers is not None and self._ospec is not None:
            answers, obs_payload = answers
        if self._obs is not None:
            self._note_copy_done(
                job,
                obs_payload,
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
                self.stats.hedge_wins += 1
                if self._metrics is not None:
                    self._metrics["hedge_wins"].inc()
            for request, answer in zip(job.batch, answers):
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
            # The worker died mid-batch.  The lane is re-spawned lazily
            # by the next submit; re-dispatch this batch onto it after
            # the policy's backoff (immediate for the legacy
            # max_redispatch mapping).
            job.attempts += 1
            self.stats.redispatches += 1
            if self._metrics is not None:
                self._metrics["redispatches"].inc()
            if self._tracer is not None:
                for request in job.batch:
                    if request.trace is not None:
                        self._tracer.event(
                            request.trace.trace_id,
                            "redispatch",
                            machine=job.machine_id,
                            attempt=job.attempts,
                        )
            delay_ms = self._retry.backoff_ms(job.attempts, key=f"m{job.machine_id}")
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
        obs_payload: "Dict[str, Any] | None",
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
        if self._tracer is not None:
            round_trip = time.perf_counter() - t_dispatch
            self._trace_each(
                job.batch,
                "dispatch",
                round_trip,
                machine=job.machine_id,
                lane=lane,
                hedged=hedged,
                attempt=attempt,
                outcome=outcome,
            )
        if obs_payload is None:
            return
        compute_s = obs_payload.get("compute_s", 0.0)
        if self._tracer is not None:
            self._trace_each(
                job.batch,
                "compute",
                compute_s,
                pid=obs_payload.get("pid"),
                machine=job.machine_id,
                lane=lane,
                hedged=hedged,
            )
        if self._metrics is not None:
            self._worker_compute_hist(lane).observe(compute_s)
            harvest = obs_payload.get("metrics")
            if harvest:
                self._obs.registry.merge_snapshot(harvest)

    def _release_update(self, key: "Tuple[int, int] | None") -> None:
        """Drop one in-flight reference; retire superseded generations."""
        if key is None:
            return
        remaining = self._update_refs.get(key, 0) - 1
        if remaining > 0:
            self._update_refs[key] = remaining
            return
        self._update_refs.pop(key, None)
        machine_id, version = key
        current = self._updates.get(machine_id)
        if self._blueprint is not None and (
            current is None or current["version"] != version
        ):
            self._blueprint.retire_update(machine_id, version)

    def _resolve_request(self, request: _Request, answer: np.ndarray) -> None:
        # Count only futures this server actually resolves: a client
        # may have cancelled (or timed out) its request while the
        # batch was in flight, and blindly bumping ``answered`` for
        # those would drift the counters away from answers delivered.
        self._outstanding.discard(request)
        if request.future.done():
            self.stats.cancelled += 1
            self._note_resolved(request, "cancelled")
        else:
            request.future.set_result(answer)
            self.stats.answered += 1
            self._note_resolved(request, "answered")

    def _fail_request(self, request: _Request, error: BaseException) -> None:
        self._outstanding.discard(request)
        if request.future.done():
            self.stats.cancelled += 1
            self._note_resolved(request, "cancelled")
        else:
            request.future.set_exception(error)
            self.stats.failed += 1
            self._note_resolved(request, "failed")

    def _shed_request(self, request: _Request) -> None:
        """Drop a deadline-expired request with a typed error (ledger: shed)."""
        self._outstanding.discard(request)
        if request.future.done():
            self.stats.cancelled += 1
            self._note_resolved(request, "cancelled")
        else:
            request.future.set_exception(
                DeadlineExceeded(
                    f"deadline expired before compute for node {request.node}"
                )
            )
            self.stats.shed += 1
            self._note_resolved(request, "shed")

    def _note_resolved(self, request: _Request, outcome: str) -> None:
        """Request reached its final state: outcome metrics + trace total."""
        if self._obs is None:
            return
        if self._metrics is not None:
            self._metrics["outcome"][outcome].inc()
            self._metrics["latency"].observe(time.perf_counter() - request.admitted_at)
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
