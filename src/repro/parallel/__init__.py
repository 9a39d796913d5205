"""Process-parallel execution for the reproduction's fan-out stages.

Two executors, one determinism contract: output is byte-identical at any
worker count, and ``workers=1`` runs inline as the reference path.

:class:`ParallelExecutor` runs independent deterministic tasks over a
throwaway pool with ordered result collection (``map``); its ``shared``
payload reaches each worker once (inherited under ``fork``, pickled once
per worker under ``spawn``).  Consumers:

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
each on its own pipe (``submit(fn, task, lane=...)``), and ships each
:class:`Parcel` through a lane's pipe once per worker.
:class:`repro.serving.QueryServer` and
:class:`repro.serving.TenantHost` serve on it, their sessions and
per-machine source generations riding as parcels; an attached
:class:`~repro.streaming.StreamingSummarizer` sends each refresh's lane
shares to it.
"""

from repro.parallel.executor import ParallelExecutor, derive_seed, resolve_workers
from repro.parallel.lanes import LaneExecutor, Parcel

__all__ = [
    "LaneExecutor",
    "ParallelExecutor",
    "Parcel",
    "derive_seed",
    "resolve_workers",
]
