"""Alg. 3 end to end: partition → per-part artifacts → routed answering.

Two cluster builders mirror the two sides of Fig. 12:

* :func:`build_summary_cluster` — PeGaSus' application: one summary graph
  per machine, personalized to the machine's node part ``V_i``, each within
  the per-machine memory budget ``k``;
* :func:`build_subgraph_cluster` — the graph-partitioning alternative: one
  budgeted subgraph per machine (edges closest to ``V_i``).

Both return a :class:`~repro.distributed.cluster.DistributedCluster` whose
queries are answered without communication.

The ``m`` per-machine artifacts are mutually independent, so both builders
accept ``workers=`` and fan the machines out over a
:class:`~repro.parallel.ParallelExecutor`.  Each machine's build is
self-contained and seeded, so the cluster is byte-identical at any worker
count.  The input graph travels in the executor's ``shared`` payload,
which reaches each worker once: inherited under ``fork``, pickled once
per worker under ``spawn``.  A task is only ``(machine_id, part)``.
"""

from __future__ import annotations

import os
from typing import Callable, List, Tuple

import numpy as np

from repro.core.pegasus import PegasusConfig, summarize
from repro.core.weights import PersonalizedWeights
from repro.distributed.cluster import DistributedCluster, Machine
from repro.distributed.subgraph import budgeted_subgraph
from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.obs.profile import probe
from repro.parallel import ParallelExecutor
from repro.partitioning.louvain import louvain_partition
from repro.partitioning.quality import validate_partition

Partitioner = Callable[[Graph, int], np.ndarray]


def _parts_from_assignment(graph: Graph, assignment: np.ndarray, num_machines: int) -> List[np.ndarray]:
    assignment = validate_partition(graph, assignment, num_parts=num_machines)
    parts = [np.flatnonzero(assignment == i) for i in range(num_machines)]
    if any(p.size == 0 for p in parts):
        raise PartitionError("every machine needs a non-empty node part")
    return parts


def _resolve_parts(
    graph: Graph,
    num_machines: int,
    partitioner: "Partitioner | None",
    assignment: "np.ndarray | None",
    seed: "int | None",
) -> List[np.ndarray]:
    """Partition once in the parent process (Alg. 3, line 1)."""
    if assignment is None:
        partitioner = partitioner or (lambda g, m: louvain_partition(g, m, seed=seed))
        assignment = partitioner(graph, num_machines)
    return _parts_from_assignment(graph, assignment, num_machines)


def _summary_machine_task(shared, task) -> Machine:
    """Build one machine's personalized summary (runs in a pool worker)."""
    graph, budget_bits, config = shared
    machine_id, part = task
    weights = PersonalizedWeights(graph, part, alpha=config.alpha)
    result = summarize(graph, budget_bits=budget_bits, config=config, weights=weights)
    return Machine(
        machine_id=machine_id,
        part_nodes=part,
        source=result.summary,
        memory_bits=result.summary.size_in_bits(),
    )


def _subgraph_machine_task(shared, task) -> Machine:
    """Build one machine's budgeted subgraph (runs in a pool worker)."""
    graph, budget_bits, seed = shared
    machine_id, part = task
    subgraph = budgeted_subgraph(graph, part, budget_bits, seed=seed)
    return Machine(
        machine_id=machine_id,
        part_nodes=part,
        source=subgraph,
        memory_bits=subgraph.size_in_bits(),
    )


def _spill_path(spill_dir: str, machine_id: int) -> str:
    return os.path.join(spill_dir, f"machine-{machine_id:04d}.store")


def _summary_spill_task(shared, task) -> Tuple[int, str, float]:
    """Build one machine's summary, persist it, and drop the in-RAM copy.

    The worker's return payload is a ``(machine_id, path, memory_bits)``
    triple — the summary itself never travels back to (or stays resident
    in) the parent; the parent memory-maps the store file instead.  The
    graph CSR is not embedded (every machine shares the one input graph),
    so each spill file holds exactly one machine's columnar summary.
    """
    from repro.store import save_summary_binary

    graph, budget_bits, config, spill_dir = shared
    machine_id, part = task
    weights = PersonalizedWeights(graph, part, alpha=config.alpha)
    result = summarize(graph, budget_bits=budget_bits, config=config, weights=weights)
    path = _spill_path(spill_dir, machine_id)
    with probe("store.spill"):
        save_summary_binary(result.summary, path, include_graph=False)
    return machine_id, path, result.summary.size_in_bits()


def _subgraph_spill_task(shared, task) -> Tuple[int, str, float]:
    """Build one machine's budgeted subgraph, persist it, drop the copy."""
    from repro.store import save_graph

    graph, budget_bits, seed, spill_dir = shared
    machine_id, part = task
    subgraph = budgeted_subgraph(graph, part, budget_bits, seed=seed)
    path = _spill_path(spill_dir, machine_id)
    with probe("store.spill"):
        save_graph(subgraph, path)
    return machine_id, path, subgraph.size_in_bits()


def _machines_from_spill(
    graph: "Graph | None",
    parts: List[np.ndarray],
    results: "List[Tuple[int, str, float]]",
    *,
    summaries: bool,
) -> List[Machine]:
    """Reopen spilled stores as memory-mapped machine sources.

    The mapped arrays are paged in on demand by the OS, so the parent's
    resident set stays bounded by one machine's working set instead of the
    whole cluster — the build-beyond-RAM mode of the persistent store.
    """
    from repro.store import load_graph, load_summary_binary

    machines: List[Machine] = []
    for machine_id, path, memory_bits in results:
        if summaries:
            source = load_summary_binary(path, graph, verify=False)
        else:
            source = load_graph(path, verify=False)
        machines.append(
            Machine(
                machine_id=machine_id,
                part_nodes=parts[machine_id],
                source=source,
                memory_bits=memory_bits,
            )
        )
    machines.sort(key=lambda machine: machine.machine_id)
    return machines


def build_summary_cluster(
    graph: Graph,
    num_machines: int,
    budget_bits: float,
    *,
    partitioner: "Partitioner | None" = None,
    assignment: "np.ndarray | None" = None,
    config: "PegasusConfig | None" = None,
    seed: "int | None" = 0,
    workers: "int | None" = 1,
    spill_dir: "str | os.PathLike[str] | None" = None,
) -> DistributedCluster:
    """Alg. 3 preprocessing with personalized summary graphs.

    Parameters
    ----------
    graph:
        The input graph ``G``.
    num_machines:
        Number of machines ``m`` (the paper uses 8).
    budget_bits:
        Per-machine memory ``k`` in bits.
    partitioner:
        ``(graph, m) -> assignment``; defaults to the Louvain-based
        balanced partitioner, as in Alg. 3.
    assignment:
        Precomputed node partition (overrides *partitioner*).
    config:
        PeGaSus hyper-parameters for the per-part summaries.
    seed:
        Seed for the default Louvain partitioner and, when *config* is
        not given, for the default ``PegasusConfig`` (the seed used to
        be silently dropped on both paths, leaving the default build
        non-reproducible).
    workers:
        Process-pool size for the ``m`` per-machine summary builds
        (``1`` = sequential, ``0`` = all cores).  With a seeded config
        the machine summaries are byte-identical at any worker count;
        ``config.seed=None`` opts into fresh entropy per build.
    spill_dir:
        Out-of-core mode: each machine's summary is written to
        ``<spill_dir>/machine-<id>.store`` (crash-atomic, checksummed)
        as it is built and the in-RAM copy is dropped; the returned
        cluster memory-maps the store files, so peak resident memory is
        bounded by one machine's working set rather than the whole
        cluster.  The saved files are byte-identical to what
        :func:`repro.store.save_summary_binary` would write from an
        in-RAM build (``include_graph=False``).  The directory is
        created if missing and must outlive the cluster.
    """
    parts = _resolve_parts(graph, num_machines, partitioner, assignment, seed)
    config = config or PegasusConfig(seed=seed)
    tasks = list(enumerate(parts))
    if spill_dir is not None:
        spill_dir = os.fspath(spill_dir)
        os.makedirs(spill_dir, exist_ok=True)
        shared = (graph, float(budget_bits), config, spill_dir)
        task_fn = _summary_spill_task
    else:
        shared = (graph, float(budget_bits), config)
        task_fn = _summary_machine_task
    results = ParallelExecutor(workers).map(task_fn, tasks, shared=shared)
    if spill_dir is not None:
        machines = _machines_from_spill(graph, parts, results, summaries=True)
    else:
        machines = results
    return DistributedCluster(graph, machines)


def build_subgraph_cluster(
    graph: Graph,
    num_machines: int,
    budget_bits: float,
    *,
    partitioner: "Partitioner | None" = None,
    assignment: "np.ndarray | None" = None,
    seed: "int | None" = 0,
    workers: "int | None" = 1,
    spill_dir: "str | os.PathLike[str] | None" = None,
) -> DistributedCluster:
    """The Sect. IV alternative: budgeted subgraphs from a partitioner.

    *seed* feeds both the default Louvain partitioner and the per-machine
    :func:`~repro.distributed.subgraph.budgeted_subgraph` tie-breaking;
    *workers* fans the per-machine subgraph builds out, byte-identically
    at any worker count, as in :func:`build_summary_cluster`.
    *spill_dir* is the same out-of-core mode: each machine's subgraph is
    persisted as it is built and the cluster memory-maps the files.
    """
    parts = _resolve_parts(graph, num_machines, partitioner, assignment, seed)
    tasks = list(enumerate(parts))
    if spill_dir is not None:
        spill_dir = os.fspath(spill_dir)
        os.makedirs(spill_dir, exist_ok=True)
        shared = (graph, float(budget_bits), seed, spill_dir)
        task_fn = _subgraph_spill_task
    else:
        shared = (graph, float(budget_bits), seed)
        task_fn = _subgraph_machine_task
    results = ParallelExecutor(workers).map(task_fn, tasks, shared=shared)
    if spill_dir is not None:
        machines = _machines_from_spill(None, parts, results, summaries=False)
    else:
        machines = results
    return DistributedCluster(graph, machines)
