"""Shipping a cluster's per-machine query sources to serving workers.

A :class:`~repro.distributed.cluster.DistributedCluster` holds one query
source per machine — a personalized :class:`~repro.core.summary.SummaryGraph`
or a budgeted :class:`~repro.graph.graph.Graph` subgraph.  Serving workers
must answer against *exactly* those sources, for thousands of
micro-batches, without re-shipping them per batch.

:class:`ClusterBlueprint` reduces every source to the flat arrays that
fully determine its query behavior:

* summary source → ``(supernode_of, lo, hi[, weights])`` — the same
  lexsorted columnar export every query answer is computed from
  (``SummaryGraph.superedge_arrays``);
* graph source → its CSR ``(indptr, indices)``.

Sources whose arrays already live on disk — the memory-mapped
:class:`~repro.store.MappedSummary` / :class:`~repro.store.MappedGraph`
produced by ``pipeline(spill_dir=...)`` or :func:`repro.store.load_graph`
— ship no arrays: the blueprint ships only the store *path* and each
worker memory-maps the same checksummed file, so a cluster larger than
RAM is served without ever materializing it in any process.

Everything ships as :class:`~repro.parallel.lanes.Parcel` values, which
a lane sends to its worker once: the **session** (every machine's start
arrays, by session token) and, per batch, the machine's **source
generation** (version 0 is the session's start source; each hot swap
exports a new version with its own arrays).  Once a lane's worker holds
them, a batch task carries only the token, the version and its items.
Workers rebuild a :class:`~repro.distributed.cluster.Machine` per machine
id on first use and keep one generation per machine, so the
reconstruction operator — which RWR, PHP and HOP all read — is built
**once per worker per machine generation**, not once per batch.  A
worker asked for a session or generation it does not hold raises
:class:`~repro.errors.ServingError` rather than answer from another one.

Telemetry travels the same way as answers: a batch task with
``profile`` set records its probes into a registry of its own and its
:class:`BatchReply` carries that registry's snapshot, which the server
merges into its own registry.  The inline path (``workers=1``) runs the
same code, so it reports the same metrics as a lane.

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
from contextlib import nullcontext
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.summary import SummaryGraph
from repro.distributed.cluster import DistributedCluster, Machine
from repro.errors import ServingError
from repro.graph.graph import Graph
from repro.parallel.lanes import Parcel
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

    :attr:`payload` holds every machine's start arrays (or store path)
    under a fresh :attr:`token`; :meth:`session` wraps it as the parcel a
    serving lane ships to each worker once.  :meth:`source` names the
    generation a machine's batches are answered against: version 0 until
    :meth:`export_update` hot-swaps it.
    """

    def __init__(self, cluster: DistributedCluster):
        arrays: Dict[str, np.ndarray] = {}
        specs = [_export_machine(machine, arrays) for machine in cluster.machines]
        # Workers key sessions by token; uuid keeps two servers sharing
        # one executor (or one process) from colliding.
        self.token = uuid.uuid4().hex
        self.payload: Dict[str, Any] = {
            "specs": specs,
            # Store-backed machines contribute no arrays (workers memmap
            # their files), so this may legitimately be empty.
            "arrays": {key: np.ascontiguousarray(a) for key, a in arrays.items()},
        }
        self._sources = {
            machine.machine_id: Parcel((self.token, machine.machine_id))
            for machine in cluster.machines
        }
        self._next_version = 1

    def session(self) -> Parcel:
        """The session parcel: every machine's start source, by token."""
        return Parcel(self.token, 0, self.payload)

    def source(self, machine_id: int) -> Parcel:
        """The parcel naming *machine_id*'s current source generation."""
        return self._sources[machine_id]

    def slots(self) -> List[Hashable]:
        """Every parcel slot of this session: its token and one per machine."""
        return [self.token, *(parcel.slot for parcel in self._sources.values())]

    def export_update(self, machine: Machine) -> Parcel:
        """Export one machine's *current* source as its next generation.

        The returned parcel (``version`` monotone per blueprint, value
        ``{"spec", "arrays"}``) becomes :meth:`source` for the machine, so
        batches flushed from now on are answered against it while batches
        already flushed keep the generation they carry.
        """
        arrays: Dict[str, np.ndarray] = {}
        spec = _export_machine(machine, arrays)
        version = self._next_version
        self._next_version += 1
        update = {
            "spec": spec,
            "arrays": {key: np.ascontiguousarray(a) for key, a in arrays.items()},
        }
        parcel = Parcel((self.token, machine.machine_id), version, update)
        self._sources[machine.machine_id] = parcel
        return parcel


class _AttachedCluster:
    """Worker-side lazily rebuilt machines for one serving session.

    Machines are cached per source generation, one per machine: version 0
    is rebuilt from the session's start arrays, a later version from the
    arrays its parcel carried.  A batch naming a generation this worker
    does not hold, without its arrays, is refused.
    """

    def __init__(self, payload: Dict[str, Any]):
        self._containers: List[Any] = []  # opened store containers, for close()
        self._arrays = payload["arrays"]
        self._specs = {spec["machine_id"]: spec for spec in payload["specs"]}
        self.chaos: "Dict[str, Any] | None" = payload.get("chaos")
        self._machines: Dict[int, Tuple[int, Machine]] = {}

    def _rebuild_source(self, spec: Dict[str, Any], arrays: Any):
        prefix = f"m{spec['machine_id']}."
        num_nodes = spec["num_nodes"]
        if spec["kind"] in ("summary_store", "graph_store"):
            # The source's arrays live in a checksummed store file; map it
            # (CRC-verified once per worker).
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

    def machine(self, machine_id: int, source: Parcel) -> Machine:
        """The rebuilt machine for one batch (cached; operator cache included).

        *source* names the generation the batch was flushed against.
        """
        cached = self._machines.get(machine_id)
        if cached is not None and cached[0] == source.version:
            return cached[1]
        if source.version == 0:
            spec = self._specs.get(machine_id)
            if spec is None:
                raise ServingError(f"machine {machine_id} is not part of this blueprint")
            arrays = self._arrays
        elif source.value is not None:
            spec, arrays = source.value["spec"], source.value["arrays"]
        else:
            raise ServingError(
                f"this worker does not hold version {source.version} of machine {machine_id}"
            )
        machine = Machine(
            machine_id=machine_id,
            part_nodes=np.empty(0, dtype=np.int64),  # routing stays in the parent
            source=self._rebuild_source(spec, arrays),
            memory_bits=spec["memory_bits"],
        )
        self._machines[machine_id] = (source.version, machine)
        return machine

    def close(self) -> None:
        """Drop the rebuilt machines and close every store file they opened."""
        self._machines.clear()
        for container in self._containers:
            container.close()
        self._containers = []


#: Per-process cache of attached serving sessions, keyed by token.
_SESSIONS: Dict[str, _AttachedCluster] = {}


def attached_cluster(session: Parcel) -> _AttachedCluster:
    """The (cached) worker-side view of a serving session's machines."""
    attached = _SESSIONS.get(session.slot)
    if attached is None:
        if session.value is None:
            raise ServingError(f"this worker does not hold serving session {session.slot}")
        attached = _AttachedCluster(session.value)
        _SESSIONS[session.slot] = attached
    return attached


def release_session(token: str) -> None:
    """Evict this process's cache for one serving session (no-op if absent).

    Lane workers outlive sessions, and the ``workers=1`` inline path
    caches the rebuilt machines in the *parent*; ``QueryServer.stop`` and
    :func:`release_session_task` call this so finished sessions do not
    pin their machines and store files.
    """
    attached = _SESSIONS.pop(token, None)
    if attached is not None:
        attached.close()


def session_cached_task(shared: Any, token: str) -> bool:
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

    ``items`` are ``(node, query_type, expires_at)`` triples,
    ``expires_at`` a raw monotonic instant or ``None`` for an unbounded
    deadline.  ``source`` is the parcel naming the machine's source
    generation the batch was flushed against
    (:meth:`ClusterBlueprint.source`); a lane sends its arrays only to a
    worker that lacks them.  With ``profile`` set, the batch records its
    probes into a registry of its own and ships it back with the reply.
    """

    machine_id: int
    items: List[Tuple[int, str, Optional[float]]]
    source: Parcel
    profile: bool = False


class BatchReply(NamedTuple):
    """A lane's answer to one :class:`BatchTask`.

    ``answers`` come in item order, ``None`` for an item whose deadline
    expired before compute.  ``pid`` and ``compute_s`` say which process
    answered and how long it took; ``metrics`` is the snapshot of the
    batch's own registry (``None`` unless the task asked for it).
    """

    answers: List[Optional[np.ndarray]]
    pid: int
    compute_s: float
    metrics: Optional[Dict[str, Any]]


def serve_batch_task(shared: Parcel, task: BatchTask) -> BatchReply:
    """Answer one machine's micro-batch (runs in a lane worker).

    *shared* is the session parcel (:meth:`ClusterBlueprint.session`).
    Mixed query types share the machine's cached reconstruction operator.
    Items whose deadline already passed are skipped: their answer slot
    comes back as ``None`` and the parent sheds the request with a typed
    ``DeadlineExceeded`` instead of burning worker compute on an answer
    nobody is waiting for.

    A ``profile`` task records its probes (store loads, solver
    telemetry) into a fresh registry, inline and in a lane worker
    alike, and the reply ships that registry's snapshot, so the parent
    merges exactly this batch's measurements: nothing a worker
    inherited or recorded for other work, and nothing twice.
    """
    session = attached_cluster(shared)
    if session.chaos is not None:
        _invoke_chaos(session.chaos, task.machine_id)
    registry = obs.MetricsRegistry() if task.profile else None
    t0 = time.perf_counter()
    with obs.profiling_into(registry) if registry is not None else nullcontext():
        machine = session.machine(task.machine_id, task.source)
        answers = [
            None if deadline_expired(expires_at) else machine.answer(node, query_type)
            for node, query_type, expires_at in task.items
        ]
    compute_s = time.perf_counter() - t0
    return BatchReply(
        answers,
        os.getpid(),
        compute_s,
        None if registry is None else registry.snapshot(),
    )


def release_session_task(shared: Any, token: str) -> bool:
    """Evict one serving session's cache in a lane worker (eviction path).

    The multi-tenant host fans this across every lane when a tenant is
    evicted, so long-lived workers do not accumulate rebuilt machines
    for tenants that no longer exist.  ``shared`` is ignored.
    """
    release_session(token)
    return True
