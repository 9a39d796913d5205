"""Process-parallel execution for the reproduction's fan-out stages.

Two executors, one determinism contract: output is byte-identical at any
worker count, and ``workers=1`` runs inline as the reference path.

:class:`ParallelExecutor` runs independent deterministic tasks over a
throwaway pool with ordered result collection (``map``).  Consumers:

* :func:`repro.distributed.pipeline.build_summary_cluster` /
  :func:`~repro.distributed.pipeline.build_subgraph_cluster` — the ``m``
  per-machine artifacts of Alg. 3 build concurrently;
* :meth:`repro.distributed.cluster.DistributedCluster.answer_batch` —
  batch query serving with per-machine batching;
* :func:`repro.experiments.common.sweep` — experiment points of
  Figs. 5/6/8/9/11/12 fan out across datasets × methods × parameters;
* :class:`repro.streaming.StreamingSummarizer` — the construction build
  and refreshes with no pooled server attached.

:class:`LaneExecutor` pins each task to one of ``n`` pre-forked workers,
each on its own pipe (``submit(fn, task, lane=...)``).
:class:`repro.serving.QueryServer` and
:class:`repro.serving.TenantHost` serve on it, with the per-machine
arrays shipped once per worker via :mod:`repro.parallel.shm`; an
attached :class:`~repro.streaming.StreamingSummarizer` sends each
refresh's lane shares to it.

The build-path consumers additionally ship the immutable input graph
zero-copy through :mod:`repro.parallel.graphship`, so ``spawn`` workers
attach one shared CSR instead of unpickling their own copy.
"""

from repro.parallel.executor import ParallelExecutor, derive_seed, resolve_workers
from repro.parallel.graphship import GraphShipment, ShippedGraph, restore_graphs
from repro.parallel.lanes import LaneExecutor
from repro.parallel.shm import AttachedArrays, SharedArrayPack, ShmDescriptor, attach_arrays

__all__ = [
    "AttachedArrays",
    "GraphShipment",
    "LaneExecutor",
    "ParallelExecutor",
    "SharedArrayPack",
    "ShippedGraph",
    "ShmDescriptor",
    "attach_arrays",
    "derive_seed",
    "resolve_workers",
    "restore_graphs",
]
