"""A seed-stable process pool for embarrassingly parallel stages.

The reproduction's biggest runtime sinks — the per-machine personalized
summaries of Alg. 3, batch query serving, and the experiment sweeps behind
Figs. 5–12 — are all fan-outs of *independent, deterministic* tasks.
:class:`ParallelExecutor` runs such a fan-out over a ``multiprocessing``
pool under one contract:

**Determinism.**  ``executor.map(fn, tasks, shared=...)`` returns results
in task order, and each task sees only ``(shared, task)`` — no global
mutable state, no pool-scheduling dependence.  Provided ``fn`` itself is
deterministic (every summarizer here is, given a seed), the output list is
*byte-identical at any worker count*, including ``workers=1``, which runs
the tasks inline in the calling process without touching
``multiprocessing`` at all.

**Graph shipping.**  The *shared* payload (typically the input graph plus
a config) is shipped to each worker **once**, through the pool
initializer, instead of once per task.  Under the ``fork`` start method
the payload is inherited copy-on-write and never pickled; under ``spawn``
it is pickled exactly ``workers`` times.  Task payloads and results are
pickled per task, so keep them small (node arrays, configs, summaries).

**RNG derivation.**  Tasks that need their own randomness derive it with
:func:`derive_seed`, which folds ``(base_seed, task_index)`` through
:class:`numpy.random.SeedSequence` — stable across worker counts, Python
processes, and platforms, and decorrelated across indices.

**Pool lifetime.**  Each ``executor.map(...)`` with more than one worker
builds a throwaway pool for that call — fine for the one-shot fan-outs of
builds and sweeps.  Serving, where a fork per micro-batch would dominate,
uses the pre-forked lanes of :class:`~repro.parallel.lanes.LaneExecutor`
instead.

Worker functions must be module-level (picklable by reference) so the
pool works under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Sequence

import numpy as np

#: A task function: ``fn(shared, task) -> result``.  Must be defined at
#: module level so it pickles by reference under the spawn start method.
TaskFn = Callable[[Any, Any], Any]

# Per-worker-process state installed by the pool initializer.  Plain
# module globals: each worker process has its own copy of this module.
_WORKER_FN: "TaskFn | None" = None
_WORKER_SHARED: Any = None


def resolve_workers(workers: "int | None") -> int:
    """Normalize a ``workers`` knob to a concrete pool size.

    ``None`` or ``1`` mean *sequential* (run inline, spawn nothing);
    ``0`` or any negative value mean *all cores* (``os.cpu_count()``);
    any other positive integer is taken literally.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or the core
    count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def default_context():
    """The ``fork`` context where available, ``spawn`` elsewhere."""
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def derive_seed(base_seed: "int | None", task_index: int) -> "int | None":
    """A per-task seed that is stable at any worker count.

    Folds ``(base_seed, task_index)`` through
    :class:`numpy.random.SeedSequence`, so consecutive task indices get
    decorrelated streams (unlike ``base_seed + index``, whose nearby
    states can correlate under some bit-generators).  ``None`` stays
    ``None`` (fresh entropy per task, explicitly non-reproducible).
    """
    if base_seed is None:
        return None
    sequence = np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF, int(task_index)])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _init_worker(fn: TaskFn, shared: Any) -> None:
    """Pool initializer: install the task function and shared payload."""
    global _WORKER_FN, _WORKER_SHARED
    _WORKER_FN = fn
    _WORKER_SHARED = shared


def _run_task(task: Any) -> Any:
    """Top-level trampoline executed in the worker for each task."""
    return _WORKER_FN(_WORKER_SHARED, task)


class ParallelExecutor:
    """Ordered fan-out of independent tasks over a process pool.

    Parameters
    ----------
    workers:
        Pool size, normalized by :func:`resolve_workers` (``1``/``None``
        = inline sequential, ``0``/negative = all cores).  The pool
        forks where available (cheap, inherits the graph copy-on-write)
        and spawns elsewhere; everything shipped is spawn-safe either way.

    Example
    -------
    >>> from repro.parallel import ParallelExecutor
    >>> def square(shared, task):
    ...     return shared * task * task
    >>> ParallelExecutor(workers=1).map(square, [1, 2, 3], shared=10)
    [10, 40, 90]
    """

    def __init__(self, workers: "int | None" = 1):
        self.workers = resolve_workers(workers)

    def map(
        self,
        fn: TaskFn,
        tasks: "Iterable[Any] | Sequence[Any]",
        *,
        shared: Any = None,
    ) -> List[Any]:
        """Run ``fn(shared, task)`` for every task; results in task order.

        With an effective pool size of 1 (a single task, or ``workers=1``)
        the tasks run inline — no processes, no pickling — which is also
        the reference path the parallel path must match byte for byte.
        Otherwise a throwaway pool runs them, with *shared* installed once
        per worker.  A task that raises propagates its exception to the
        caller either way.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        workers = min(self.workers, len(tasks))
        if workers <= 1:
            return [fn(shared, task) for task in tasks]
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=default_context(),
            initializer=_init_worker,
            initargs=(fn, shared),
        ) as pool:
            return list(pool.map(_run_task, tasks))
