"""Shipping a cluster's per-machine query sources to serving workers.

A :class:`~repro.distributed.cluster.DistributedCluster` holds one query
source per machine — a personalized :class:`~repro.core.summary.SummaryGraph`
or a budgeted :class:`~repro.graph.graph.Graph` subgraph.  Serving workers
must answer against *exactly* those sources, for thousands of
micro-batches, without re-pickling them per batch.

:class:`ClusterBlueprint` solves this by reducing every source to the flat
arrays that fully determine its query behavior:

* summary source → ``(supernode_of, lo, hi[, weights])`` — the same
  lexsorted columnar export every query answer is computed from
  (``SummaryGraph.superedge_arrays``);
* graph source → its CSR ``(indptr, indices)``.

The arrays are packed once into a :class:`~repro.parallel.shm.SharedArrayPack`
(zero-copy attach in each worker; set ``use_shared_memory=False`` to fall
back to pickling the arrays once per worker through the pool initializer).
Sources whose arrays already live on disk — the memory-mapped
:class:`~repro.store.MappedSummary` / :class:`~repro.store.MappedGraph`
produced by ``pipeline(spill_dir=...)`` or :func:`repro.store.load_graph`
— skip shared memory entirely: the blueprint ships only the store *path*
and each worker memory-maps the same checksummed file, so a cluster
larger than RAM is served without ever materializing it in any process.
Workers rebuild a :class:`~repro.distributed.cluster.Machine` per machine
id on first use and cache it for the life of the process, so the
reconstruction operator — the expensive part of RWR/PHP answering — is
built **once per worker per machine**, not once per batch.

Determinism: the rebuilt summary reproduces the original's
``supernode_of`` and lexsorted superedge arrays bit for bit, and every
query answer is a pure function of those arrays (pinned by the mapped
store's round-trip suite), so served answers are byte-identical to
``DistributedCluster.answer`` regardless of worker count or start
method.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.summary import SummaryGraph
from repro.distributed.cluster import DistributedCluster, Machine
from repro.errors import ServingError
from repro.graph.graph import Graph
from repro.parallel.shm import SharedArrayPack, attach_arrays, detach_arrays
from repro.queries.operator import as_residual_source
from repro.resilience.policy import deadline_expired


def _export_summary(summary: SummaryGraph, prefix: str, arrays: Dict[str, np.ndarray]) -> None:
    lo, hi, weights = summary.superedge_arrays()
    arrays[prefix + "supernode_of"] = summary.supernode_of
    arrays[prefix + "lo"] = lo
    arrays[prefix + "hi"] = hi
    if weights is not None:
        arrays[prefix + "weights"] = weights


def _export_machine(machine: Machine, arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """Reduce one machine's source to flat arrays plus a small spec.

    Memory-mapped sources are special-cased *before* their in-RAM base
    classes: their arrays are already durable and checksummed on disk, so
    the spec carries only the store path and workers memmap it themselves.
    """
    from repro.store.mapped import MappedGraph, MappedSummary

    prefix = f"m{machine.machine_id}."
    source = machine.source
    if isinstance(source, MappedSummary):
        return {
            "machine_id": machine.machine_id,
            "kind": "summary_store",
            "path": source.store_path,
            "num_nodes": source.num_nodes,
            "memory_bits": machine.memory_bits,
        }
    if isinstance(source, MappedGraph):
        return {
            "machine_id": machine.machine_id,
            "kind": "graph_store",
            "path": source.store_path,
            "num_nodes": source.num_nodes,
            "memory_bits": machine.memory_bits,
        }
    if isinstance(source, SummaryGraph):
        _export_summary(source, prefix, arrays)
        return {
            "machine_id": machine.machine_id,
            "kind": "summary",
            "weighted": source.is_weighted,
            "num_nodes": source.num_nodes,
            "memory_bits": machine.memory_bits,
        }
    if isinstance(source, Graph):
        arrays[prefix + "indptr"] = source.indptr
        arrays[prefix + "indices"] = source.indices
        return {
            "machine_id": machine.machine_id,
            "kind": "graph",
            "num_nodes": source.num_nodes,
            "memory_bits": machine.memory_bits,
        }
    residual = as_residual_source(source)
    if residual is not None:
        _export_summary(residual.summary, prefix, arrays)
        arrays[prefix + "extra"] = residual.extra_edge_array()
        return {
            "machine_id": machine.machine_id,
            "kind": "residual",
            "weighted": residual.summary.is_weighted,
            "num_nodes": residual.num_nodes,
            "memory_bits": machine.memory_bits,
        }
    raise ServingError(f"cannot serve source of type {type(source).__name__}")


class ClusterBlueprint:
    """Parent-side export of a cluster's machines for serving workers.

    Parameters
    ----------
    cluster:
        The cluster whose machines will answer served queries.
    use_shared_memory:
        Pack the arrays into one ``multiprocessing.shared_memory`` block
        (default; workers attach zero-copy).  ``False`` ships the arrays
        by pickle once per worker instead — the answers are identical,
        only the shipping cost differs.  If the platform cannot create
        shared memory the pickle path is used automatically.

    The :attr:`payload` is what the serving pool installs as its session
    shared value.  Call :meth:`close` when the serving session ends to
    unlink the shared-memory block.
    """

    def __init__(self, cluster: DistributedCluster, *, use_shared_memory: bool = True):
        arrays: Dict[str, np.ndarray] = {}
        specs = [_export_machine(machine, arrays) for machine in cluster.machines]
        self._pack: "SharedArrayPack | None" = None
        self._use_shared_memory = use_shared_memory
        self._update_packs: Dict[Tuple[int, int], SharedArrayPack] = {}
        self._latest_version: Dict[int, int] = {}
        self._next_version = 1
        payload: Dict[str, Any] = {
            # Workers cache attached clusters by token; uuid keeps two
            # concurrent servers in one process from colliding.
            "token": uuid.uuid4().hex,
            "specs": specs,
        }
        if use_shared_memory and arrays:
            try:
                self._pack = SharedArrayPack(arrays)
            except OSError:  # pragma: no cover - no /dev/shm on this platform
                self._pack = None
        if self._pack is not None:
            payload["descriptor"] = self._pack.descriptor
        else:
            # Store-backed machines contribute no arrays (workers memmap
            # their files), so this may legitimately be empty.
            payload["arrays"] = {key: np.ascontiguousarray(a) for key, a in arrays.items()}
        self.payload = payload

    @property
    def uses_shared_memory(self) -> bool:
        """Whether the arrays actually live in a shared-memory block."""
        return self._pack is not None

    def export_update(self, machine: Machine) -> Dict[str, Any]:
        """Export one machine's *current* source as a hot-swap update.

        Returns a small picklable payload ``{"version", "spec",
        "descriptor" | "arrays"}`` that rides along with every subsequent
        batch task for this machine.  Versions are monotone per
        blueprint, so a worker serves each batch against exactly the
        source generation that was live when the batch was flushed —
        in-flight batches keep their pre-swap version, later ones the new
        one.  The backing shared-memory block (when used) stays alive
        until the version is superseded *and* no in-flight batch still
        references it (:meth:`retire_update`, driven by the server's
        per-batch refcounts), or until :meth:`close`.  Without shared
        memory the arrays ride inside the update payload itself, i.e.
        they are re-pickled per batch for a swapped machine — correct but
        heavier; prefer shared memory for long hot-swapping streams.
        """
        arrays: Dict[str, np.ndarray] = {}
        spec = _export_machine(machine, arrays)
        version = self._next_version
        self._next_version += 1
        update: Dict[str, Any] = {"version": version, "spec": spec}
        pack: "SharedArrayPack | None" = None
        if self._use_shared_memory and self._pack is not None and arrays:
            try:
                pack = SharedArrayPack(arrays)
            except OSError:  # pragma: no cover - no /dev/shm on this platform
                pack = None
        if pack is not None:
            self._update_packs[(machine.machine_id, version)] = pack
            update["descriptor"] = pack.descriptor
        else:
            update["arrays"] = {key: np.ascontiguousarray(a) for key, a in arrays.items()}
        self._latest_version[machine.machine_id] = version
        return update

    def retire_update(self, machine_id: int, version: int) -> None:
        """Unlink a *superseded* update's shared-memory block (idempotent).

        No-op while the version is still the machine's latest (future
        batches will carry it) and for pickle-shipped updates.  Safe even
        if some process still maps the block — unlinking only prevents
        *new* attaches, and the refcounting caller guarantees none will
        come.
        """
        if self._latest_version.get(machine_id) == version:
            return
        pack = self._update_packs.pop((machine_id, version), None)
        if pack is not None:
            pack.close()

    def close(self) -> None:
        """Unlink the shared-memory blocks (idempotent)."""
        if self._pack is not None:
            self._pack.close()
        for pack in self._update_packs.values():
            pack.close()
        self._update_packs = {}
        self._latest_version = {}

    def __enter__(self) -> "ClusterBlueprint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _AttachedCluster:
    """Worker-side lazily rebuilt machines for one serving session.

    Machines are cached per *version*: version 0 is the session's start
    blueprint; hot-swap updates (:meth:`ClusterBlueprint.export_update`)
    ride along with batch tasks and carry their own version plus array
    source, so any worker — regardless of which batches it happened to
    execute — can rebuild exactly the generation a batch was flushed
    against.  Per machine only the most recently used version is kept;
    rebuilding an evicted one from its update payload is always possible.
    """

    def __init__(self, payload: Dict[str, Any]):
        self._attached_names: List[str] = []
        self._containers: List[Any] = []  # opened store containers, for detach
        if "descriptor" in payload:
            self._arrays: Any = self._attach(payload["descriptor"])
        else:
            self._arrays = payload.get("arrays", {})
        self._specs = {spec["machine_id"]: spec for spec in payload["specs"]}
        self._machines: Dict[int, Tuple[int, Machine]] = {}

    def _attach(self, descriptor) -> Any:
        arrays = attach_arrays(descriptor)
        if descriptor.name not in self._attached_names:
            self._attached_names.append(descriptor.name)
        return arrays

    def _rebuild_source(self, spec: Dict[str, Any], arrays: Any):
        prefix = f"m{spec['machine_id']}."
        num_nodes = spec["num_nodes"]
        if spec["kind"] in ("summary_store", "graph_store"):
            # The source's arrays live in a checksummed store file; map it
            # (CRC-verified once per worker) instead of touching shm.
            from repro.store import load_graph, load_summary_binary

            if spec["kind"] == "summary_store":
                source = load_summary_binary(spec["path"])
            else:
                source = load_graph(spec["path"])
            if source.num_nodes != num_nodes:
                raise ServingError(
                    f"store {spec['path']!r} holds {source.num_nodes} nodes, "
                    f"blueprint expected {num_nodes}"
                )
            self._containers.append(source._container)
            return source
        if spec["kind"] == "graph":
            return Graph(num_nodes, arrays[prefix + "indptr"], arrays[prefix + "indices"])
        lo = arrays[prefix + "lo"]
        hi = arrays[prefix + "hi"]
        weighted = spec["weighted"]
        if weighted:
            weights = arrays[prefix + "weights"]
            superedges = zip(lo.tolist(), hi.tolist(), weights.tolist())
        else:
            superedges = ((a, b, None) for a, b in zip(lo.tolist(), hi.tolist()))
        # Query answering never reads the summary's input graph beyond its
        # node count, so an edgeless stand-in keeps the rebuild cheap.
        summary = SummaryGraph.from_parts(
            Graph.empty(num_nodes),
            arrays[prefix + "supernode_of"],
            superedges,
            weighted=weighted,
        )
        if spec["kind"] == "residual":
            from repro.streaming.residual import ResidualSource

            return ResidualSource(
                summary, arrays[prefix + "extra"], assume_filtered=True
            )
        return summary

    def machine(self, machine_id: int, update: "Dict[str, Any] | None" = None) -> Machine:
        """The rebuilt machine for one batch (cached; operator cache included).

        *update* names the source generation the batch was flushed
        against; ``None`` means the session's start blueprint (version 0).
        """
        version = 0 if update is None else update["version"]
        cached = self._machines.get(machine_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        if update is None:
            spec = self._specs.get(machine_id)
            if spec is None:
                raise ServingError(f"machine {machine_id} is not part of this blueprint")
            arrays = self._arrays
        else:
            spec = update["spec"]
            if "descriptor" in update:
                arrays = self._attach(update["descriptor"])
            else:
                arrays = update["arrays"]
        machine = Machine(
            machine_id=machine_id,
            part_nodes=np.empty(0, dtype=np.int64),  # routing stays in the parent
            source=self._rebuild_source(spec, arrays),
            memory_bits=spec["memory_bits"],
        )
        self._machines[machine_id] = (version, machine)
        return machine

    def detach(self) -> None:
        """Unmap every shared-memory block and store file this session opened."""
        self._machines.clear()
        for name in self._attached_names:
            detach_arrays(name)
        self._attached_names = []
        for container in self._containers:
            container.close()
        self._containers = []


#: Per-process cache of attached serving sessions, keyed by payload token.
_SESSIONS: Dict[str, _AttachedCluster] = {}


def attached_cluster(payload: Dict[str, Any]) -> _AttachedCluster:
    """The (cached) worker-side view of a serving session's machines."""
    session = _SESSIONS.get(payload["token"])
    if session is None:
        session = _AttachedCluster(payload)
        _SESSIONS[payload["token"]] = session
    return session


def release_session(payload: Dict[str, Any]) -> None:
    """Evict this process's cache for one serving session (no-op if absent).

    Pool workers die with their pool, but the ``workers=1`` inline path
    caches the rebuilt machines — and the shm mappings, hot-swap updates
    included — in the *parent*; ``QueryServer.stop`` calls this so
    repeated start/stop cycles in one process do not accumulate dead
    sessions.
    """
    session = _SESSIONS.pop(payload["token"], None)
    if session is not None:
        session.detach()
        return
    descriptor = payload.get("descriptor")
    if descriptor is not None:
        detach_arrays(descriptor.name)


def session_cached_task(shared: Dict[str, Any], token: str) -> bool:
    """Whether this worker still caches the session named by *token*.

    Introspection for the eviction tests and for operational probes: a
    tenant evicted from a :class:`~repro.serving.tenancy.TenantHost`
    must leave no cached machines on any lane.  ``shared`` is ignored.
    """
    return token in _SESSIONS


def _invoke_chaos(spec: Dict[str, Any], machine_id: int) -> None:
    """Run a fault-injection hook named by the payload's ``chaos`` spec.

    The spec's ``hook`` is a ``"module:function"`` path resolved in the
    worker process and called as ``hook(spec, machine_id)`` before the
    batch is answered.  This is the serving tier's fault-injection seam:
    the chaos test harness (``tests/_chaos.py``) uses it to kill a
    worker or stall a machine *inside* the real execution path, and it
    costs nothing when no spec is present.
    """
    import importlib

    module_name, _, function_name = str(spec.get("hook", "")).partition(":")
    if not module_name or not function_name:
        raise ServingError(f"malformed chaos hook {spec.get('hook')!r}")
    hook = getattr(importlib.import_module(module_name), function_name)
    hook(spec, machine_id)


def chaos_delay(spec: Dict[str, Any], machine_id: int) -> None:
    """Built-in chaos hook: stall the targeted machine's batches.

    The CLI's ``--chaos slow-lane`` names this hook (the test-only
    injectors in ``tests/_chaos.py`` are not importable from an
    installed CLI).  ``machine`` limits the stall to one machine's lane;
    ``delay_s`` is the per-batch sleep.
    """
    machine = spec.get("machine")
    if machine is None or int(machine) == machine_id:
        time.sleep(float(spec.get("delay_s", 0.05)))


class BatchTask(NamedTuple):
    """One machine's micro-batch, as shipped to a serving lane.

    Every field is always present.  ``items`` are ``(node, query_type,
    expires_at)`` triples, ``expires_at`` a raw monotonic instant or
    ``None`` for an unbounded deadline.  ``update`` is the hot-swap
    payload from :meth:`ClusterBlueprint.export_update` the batch was
    flushed against (``None`` = the session's start blueprint).  With
    ``profile`` set, a worker in a process other than ``ppid`` (the
    dispatching server's) turns its probes on and ships its metrics delta
    back with the reply.
    """

    machine_id: int
    items: List[Tuple[int, str, Optional[float]]]
    update: Optional[Dict[str, Any]] = None
    ppid: int = 0
    profile: bool = False


class BatchReply(NamedTuple):
    """A lane's answer to one :class:`BatchTask`.

    ``answers`` come in item order, ``None`` for an item whose deadline
    expired before compute.  ``pid`` and ``compute_s`` say which process
    answered and how long it took; ``metrics`` is the worker's registry
    delta (``None`` unless the task asked for it).
    """

    answers: List[Optional[np.ndarray]]
    pid: int
    compute_s: float
    metrics: Optional[Dict[str, Any]]


def serve_batch_task(shared: Dict[str, Any], task: BatchTask) -> BatchReply:
    """Answer one machine's micro-batch (runs in a lane worker).

    Mixed query types share the machine's cached reconstruction operator.
    Items whose deadline already passed are skipped: their answer slot
    comes back as ``None`` and the parent sheds the request with a typed
    ``DeadlineExceeded`` instead of burning worker compute on an answer
    nobody is waiting for.

    The metrics delta is harvested per batch, and only in a true child
    process: the inline path (``workers=1``) records into the parent's
    registry directly, so a harvest there would double-count.  Shipping
    it with every reply is what lets lane compute metrics survive a
    later SIGKILL of the worker.
    """
    chaos = shared.get("chaos") if isinstance(shared, dict) else None
    if chaos is not None:
        _invoke_chaos(chaos, task.machine_id)
    pid = os.getpid()
    harvest = task.profile and pid != task.ppid
    if harvest and not obs.profiling_enabled():
        # First profiled batch on this (possibly respawned) worker: turn
        # the probes on so store loads and operator builds below are
        # captured and harvested back with the reply.
        obs.enable_profiling()
    t0 = time.perf_counter()
    machine = attached_cluster(shared).machine(task.machine_id, task.update)
    answers = [
        None if deadline_expired(expires_at) else machine.answer(node, query_type)
        for node, query_type, expires_at in task.items
    ]
    compute_s = time.perf_counter() - t0
    return BatchReply(
        answers, pid, compute_s, obs.harvest_worker_metrics() if harvest else None
    )


def release_session_task(shared: Dict[str, Any], payload: Dict[str, Any]) -> bool:
    """Evict one serving session's cache in a pool worker (eviction path).

    The multi-tenant host fans this across every lane when a tenant is
    evicted, so long-lived workers do not accumulate rebuilt machines
    and shm mappings for tenants that no longer exist.  ``shared`` is
    ignored — the session to release rides in the task payload.
    """
    release_session(payload)
    return True
